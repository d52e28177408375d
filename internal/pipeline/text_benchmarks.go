package pipeline

import (
	"willump/internal/data"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/value"
)

// Product builds the Product benchmark (Table 1: string processing,
// n-grams, TF-IDF; classification; linear model).
func Product(cfg Config) (*Benchmark, error) {
	return textClassifier(cfg, "product", "title", data.ProductTitles, 1500)
}

// Toxic builds the Toxic benchmark (Table 1: string processing, n-grams,
// TF-IDF; classification; linear model). Same operator families as Product
// with the curse-word statistics the paper's introduction describes.
func Toxic(cfg Config) (*Benchmark, error) {
	return textClassifier(cfg, "toxic", "comment", data.ToxicComments, 2000)
}

// textClassifier builds the graph Product and Toxic share, over the text
// input named input, keeping wordFeatures word-gram terms (three IFVs):
//
//	text -> clean -> tok -> ngram(1,2) -> tfidf   (word features, expensive)
//	text -> clean -> charNGrams(3,4) -> tfidf     (char features, expensive)
//	text -> stats(planted keywords)               (cheap, important)
func textClassifier(cfg Config, name, input string, gen func(seed int64, n int) *data.TextDataset, wordFeatures int) (*Benchmark, error) {
	cfg = cfg.withDefaults()
	ds := gen(cfg.Seed, cfg.N)

	b := graph.NewBuilder()
	text := b.Input(input)
	clean := b.Add("clean", ops.NewClean(), text)
	tok := b.Add("tok", ops.NewTokenize(), clean)
	ng := b.Add("word_ngrams", ops.NewWordNGrams(1, 2), tok)
	wordTF := b.Add("word_tfidf", ops.NewTFIDF(wordFeatures, ops.NormL2), ng)
	cng := b.Add("char_ngrams", ops.NewCharNGrams(3, 4), clean)
	charTF := b.Add("char_tfidf", ops.NewTFIDF(1500, ops.NormL2), cng)
	stats := b.Add("stats", ops.NewTextStats(ds.Keywords), text)
	b.SetOutput(b.Add("concat", ops.NewConcat(), wordTF, charTF, stats))

	return assemble(cfg, name, b, model.NewLogistic(model.LinearConfig{Epochs: 8, Seed: cfg.Seed}),
		map[string]value.Value{input: value.NewStrings(ds.Texts)}, ds.Y, nil)
}

// Price builds the Price benchmark (Table 1: feature encoding, string
// processing, TF-IDF; regression; neural network).
//
// Transformation graph (four IFVs): name TF-IDF, category one-hot, brand
// one-hot, numeric (condition, shipping).
func Price(cfg Config) (*Benchmark, error) {
	cfg = cfg.withDefaults()
	ds := data.PriceListings(cfg.Seed, cfg.N)

	names := make([]string, cfg.N)
	cats := make([]string, cfg.N)
	brands := make([]string, cfg.N)
	conds := make([]float64, cfg.N)
	ships := make([]float64, cfg.N)
	for i, l := range ds.Listings {
		names[i] = l.Name
		cats[i] = l.Category
		brands[i] = l.Brand
		conds[i] = l.Condition
		ships[i] = l.Shipping
	}

	b := graph.NewBuilder()
	name := b.Input("name")
	category := b.Input("category")
	brand := b.Input("brand")
	condition := b.Input("condition")
	shipping := b.Input("shipping")

	clean := b.Add("clean", ops.NewClean(), name)
	tok := b.Add("tok", ops.NewTokenize(), clean)
	nameTF := b.Add("name_tfidf", ops.NewTFIDF(1000, ops.NormL2), tok)
	catOH := b.Add("category_onehot", ops.NewOneHot(16), category)
	brandOH := b.Add("brand_onehot", ops.NewOneHot(40), brand)
	condStats := b.Add("cond_stats", ops.NewNumericStats(), condition)
	condScaled := b.Add("cond_scale", ops.NewStandardScale(), condStats)
	shipStats := b.Add("ship_stats", ops.NewNumericStats(), shipping)
	shipScaled := b.Add("ship_scale", ops.NewStandardScale(), shipStats)
	b.SetOutput(b.Add("concat", ops.NewConcat(), nameTF, catOH, brandOH, condScaled, shipScaled))

	inputs := map[string]value.Value{
		"name":      value.NewStrings(names),
		"category":  value.NewStrings(cats),
		"brand":     value.NewStrings(brands),
		"condition": value.NewFloats(conds),
		"shipping":  value.NewFloats(ships),
	}
	return assemble(cfg, "price", b, model.NewMLP(model.MLPConfig{
		Task: model.Regression, Hidden: 24, Epochs: 12,
		LearningRate: 0.05, Seed: cfg.Seed,
	}), inputs, ds.Y, nil)
}
