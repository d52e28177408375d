package pipeline

import (
	"willump/internal/data"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/value"
)

// tableSpec is one keyed feature table of a lookup benchmark.
type tableSpec struct {
	name string
	dim  int
	rows map[int64][]float64
}

// bindTables materializes a lookup benchmark's tables on cfg's backend, in
// order, keyed by table name.
func bindTables(cfg Config, specs ...tableSpec) (map[string]ops.Table, error) {
	tables := make(map[string]ops.Table, len(specs))
	for _, sp := range specs {
		t, err := cfg.Backend.Table(sp.name, sp.dim, sp.rows)
		if err != nil {
			return nil, err
		}
		tables[sp.name] = t
	}
	return tables, nil
}

// Music builds the Music benchmark (Table 1: remote data lookup, data
// joins; classification; GBDT). It is the paper's Figure 1 pipeline widened
// to five lookup feature generators (user, song, genre, artist, context),
// matching the paper's note that Music has the most IFVs of the
// classification benchmarks.
func Music(cfg Config) (*Benchmark, error) {
	cfg = cfg.withDefaults()
	ds := data.Music(cfg.Seed, cfg.N)
	tables, err := bindTables(cfg,
		tableSpec{"users", ds.UserDim, ds.UserRows},
		tableSpec{"songs", ds.SongDim, ds.SongRows},
		tableSpec{"genres", ds.GenreDim, ds.GenreRows},
		tableSpec{"artists", ds.ArtistDim, ds.ArtistRows},
		tableSpec{"contexts", ds.ContextDim, ds.ContextRows})
	if err != nil {
		return nil, err
	}

	b := graph.NewBuilder()
	user := b.Input("user")
	song := b.Input("song")
	genre := b.Input("genre")
	artist := b.Input("artist")
	context := b.Input("context")
	uf := b.Add("user_features", ops.NewLookup("users", tables["users"]), user)
	sf := b.Add("song_features", ops.NewLookup("songs", tables["songs"]), song)
	gf := b.Add("genre_features", ops.NewLookup("genres", tables["genres"]), genre)
	af := b.Add("artist_features", ops.NewLookup("artists", tables["artists"]), artist)
	xf := b.Add("context_features", ops.NewLookup("contexts", tables["contexts"]), context)
	b.SetOutput(b.Add("concat", ops.NewConcat(), uf, sf, gf, af, xf))

	inputs := map[string]value.Value{
		"user":    value.NewInts(ds.UserIDs),
		"song":    value.NewInts(ds.SongIDs),
		"genre":   value.NewInts(ds.GenreIDs),
		"artist":  value.NewInts(ds.ArtistIDs),
		"context": value.NewInts(ds.ContextIDs),
	}
	return assemble(cfg, "music", b, model.NewGBDT(model.GBDTConfig{
		Task: model.Classification, Trees: 40, MaxDepth: 5, Seed: cfg.Seed,
	}), inputs, ds.Y, tables)
}

// Credit builds the Credit benchmark (Table 1: remote data lookup, data
// joins; regression; GBDT): application-side numeric features plus three
// joined tables.
func Credit(cfg Config) (*Benchmark, error) {
	cfg = cfg.withDefaults()
	ds := data.Credit(cfg.Seed, cfg.N)
	tables, err := bindTables(cfg,
		tableSpec{"bureau", ds.BureauDim, ds.BureauRows},
		tableSpec{"previous", ds.PrevDim, ds.PrevRows},
		tableSpec{"installments", ds.InstalDim, ds.InstalRows})
	if err != nil {
		return nil, err
	}

	b := graph.NewBuilder()
	client := b.Input("client")
	income := b.Input("income")
	amount := b.Input("amount")
	bf := b.Add("bureau_features", ops.NewLookup("bureau", tables["bureau"]), client)
	pf := b.Add("previous_features", ops.NewLookup("previous", tables["previous"]), client)
	inf := b.Add("installment_features", ops.NewLookup("installments", tables["installments"]), client)
	incomeStats := b.Add("income_stats", ops.NewNumericStats(), income)
	amountStats := b.Add("amount_stats", ops.NewNumericStats(), amount)
	// Custom "Python" UDF (non-compilable): the debt-to-income ratio
	// features that force a language transition through Weld drivers.
	debtRatio := b.Add("debt_ratio", ops.NewRatio(), amount, income)
	b.SetOutput(b.Add("concat", ops.NewConcat(), bf, pf, inf, incomeStats, amountStats, debtRatio))

	inputs := map[string]value.Value{
		"client": value.NewInts(ds.ClientIDs),
		"income": value.NewFloats(ds.Income),
		"amount": value.NewFloats(ds.CreditAmount),
	}
	return assemble(cfg, "credit", b, model.NewGBDT(model.GBDTConfig{
		Task: model.Regression, Trees: 40, MaxDepth: 5, Seed: cfg.Seed,
	}), inputs, ds.Y, tables)
}

// Tracking builds the Tracking benchmark (Table 1: remote data lookup, data
// joins; classification; GBDT): ip/app/channel aggregate-feature lookups.
func Tracking(cfg Config) (*Benchmark, error) {
	cfg = cfg.withDefaults()
	ds := data.Tracking(cfg.Seed, cfg.N)
	tables, err := bindTables(cfg,
		tableSpec{"ips", ds.IPDim, ds.IPRows},
		tableSpec{"apps", ds.AppDim, ds.AppRows},
		tableSpec{"channels", ds.ChannelDim, ds.ChannelRows})
	if err != nil {
		return nil, err
	}

	b := graph.NewBuilder()
	ip := b.Input("ip")
	app := b.Input("app")
	channel := b.Input("channel")
	ipf := b.Add("ip_features", ops.NewLookup("ips", tables["ips"]), ip)
	apf := b.Add("app_features", ops.NewLookup("apps", tables["apps"]), app)
	chf := b.Add("channel_features", ops.NewLookup("channels", tables["channels"]), channel)
	b.SetOutput(b.Add("concat", ops.NewConcat(), ipf, apf, chf))

	inputs := map[string]value.Value{
		"ip":      value.NewInts(ds.IPIDs),
		"app":     value.NewInts(ds.AppIDs),
		"channel": value.NewInts(ds.ChannelIDs),
	}
	return assemble(cfg, "tracking", b, model.NewGBDT(model.GBDTConfig{
		Task: model.Classification, Trees: 40, MaxDepth: 5, Seed: cfg.Seed,
	}), inputs, ds.Y, tables)
}
