package data

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func labelBalance(y []float64) float64 {
	var pos float64
	for _, v := range y {
		pos += v
	}
	return pos / float64(len(y))
}

func TestProductTitlesStructure(t *testing.T) {
	ds := ProductTitles(1, 2000)
	if len(ds.Texts) != 2000 || len(ds.Y) != 2000 {
		t.Fatalf("sizes = %d, %d", len(ds.Texts), len(ds.Y))
	}
	bal := labelBalance(ds.Y)
	if bal < 0.25 || bal > 0.75 {
		t.Errorf("label balance %.2f outside [0.25, 0.75]", bal)
	}
	// Planted rule: titles containing spam keywords are never concise.
	spam := make(map[string]bool)
	for _, k := range ds.Keywords {
		spam[k] = true
	}
	for i, text := range ds.Texts {
		hasSpam := false
		for _, w := range strings.Fields(text) {
			if spam[w] {
				hasSpam = true
			}
		}
		if hasSpam && ds.Y[i] == 1 {
			t.Fatalf("title %d has spam words but labeled concise", i)
		}
	}
}

func TestToxicCommentsStructure(t *testing.T) {
	ds := ToxicComments(2, 2000)
	bal := labelBalance(ds.Y)
	if bal < 0.25 || bal > 0.75 {
		t.Errorf("label balance %.2f outside [0.25, 0.75]", bal)
	}
	// Planted rule: comments containing curse words are always toxic.
	curse := make(map[string]bool)
	for _, k := range ds.Keywords {
		curse[k] = true
	}
	cursed := 0
	for i, text := range ds.Texts {
		has := false
		for _, w := range strings.Fields(text) {
			if curse[w] {
				has = true
			}
		}
		if has {
			cursed++
			if ds.Y[i] != 1 {
				t.Fatalf("comment %d has curses but labeled non-toxic", i)
			}
		}
	}
	if cursed < 200 {
		t.Errorf("only %d cursed comments in 2000; easy-toxic mass missing", cursed)
	}
}

func TestPriceListingsStructure(t *testing.T) {
	ds := PriceListings(3, 1000)
	if len(ds.Listings) != 1000 {
		t.Fatalf("listings = %d", len(ds.Listings))
	}
	for i, l := range ds.Listings {
		if l.Condition < 1 || l.Condition > 5 {
			t.Fatalf("listing %d condition %v outside [1,5]", i, l.Condition)
		}
		if l.Shipping != 0 && l.Shipping != 1 {
			t.Fatalf("listing %d shipping %v not binary", i, l.Shipping)
		}
		if l.Name == "" || l.Category == "" || l.Brand == "" {
			t.Fatalf("listing %d has empty fields", i)
		}
	}
	// Log prices should be finite and in a sane band.
	for i, y := range ds.Y {
		if y < 0 || y > 20 {
			t.Fatalf("log price %d = %v out of band", i, y)
		}
	}
}

func TestMusicStructure(t *testing.T) {
	ds := Music(4, 3000)
	if len(ds.UserIDs) != 3000 {
		t.Fatalf("queries = %d", len(ds.UserIDs))
	}
	// Every queried key must exist in its table.
	for i := range ds.UserIDs {
		if _, ok := ds.UserRows[ds.UserIDs[i]]; !ok {
			t.Fatalf("query %d user %d missing from table", i, ds.UserIDs[i])
		}
		if _, ok := ds.SongRows[ds.SongIDs[i]]; !ok {
			t.Fatalf("query %d song %d missing", i, ds.SongIDs[i])
		}
		if _, ok := ds.GenreRows[ds.GenreIDs[i]]; !ok {
			t.Fatalf("query %d genre %d missing", i, ds.GenreIDs[i])
		}
	}
	// Zipf skew: the most frequent user should cover a meaningful share of
	// queries (caching's premise).
	counts := make(map[int64]int)
	for _, u := range ds.UserIDs {
		counts[u]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max) < 0.02*float64(len(ds.UserIDs)) {
		t.Errorf("hottest user covers %d/%d queries; expected Zipf head", max, len(ds.UserIDs))
	}
	bal := labelBalance(ds.Y)
	if bal < 0.2 || bal > 0.8 {
		t.Errorf("label balance %.2f extreme", bal)
	}
}

func TestCreditStructure(t *testing.T) {
	ds := Credit(5, 2000)
	for i, y := range ds.Y {
		if y < 0 || y > 1 {
			t.Fatalf("default probability %d = %v outside [0,1]", i, y)
		}
	}
	for i := range ds.ClientIDs {
		if _, ok := ds.BureauRows[ds.ClientIDs[i]]; !ok {
			t.Fatalf("client %d missing from bureau", ds.ClientIDs[i])
		}
	}
	if len(ds.Income) != len(ds.Y) || len(ds.CreditAmount) != len(ds.Y) {
		t.Error("column lengths differ")
	}
}

func TestTrackingStructure(t *testing.T) {
	ds := Tracking(6, 3000)
	bal := labelBalance(ds.Y)
	// Downloads are a minority class but not vanishing.
	if bal < 0.05 || bal > 0.6 {
		t.Errorf("download rate %.3f outside [0.05, 0.6]", bal)
	}
	for i := range ds.IPIDs {
		if _, ok := ds.IPRows[ds.IPIDs[i]]; !ok {
			t.Fatalf("ip %d missing from table", ds.IPIDs[i])
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := ProductTitles(9, 200)
	b := ProductTitles(9, 200)
	for i := range a.Texts {
		if a.Texts[i] != b.Texts[i] || a.Y[i] != b.Y[i] {
			t.Fatalf("row %d differs across identical seeds", i)
		}
	}
	c := ProductTitles(10, 200)
	same := true
	for i := range a.Texts {
		if a.Texts[i] != c.Texts[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical corpora")
	}
}

// Property: zipfKeys stay in range and skew toward small keys.
func TestZipfKeysProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := zipfKeys(rng, 500, 1000, 1.3)
		lowHalf := 0
		for _, k := range keys {
			if k < 0 || k >= 1000 {
				return false
			}
			if k < 500 {
				lowHalf++
			}
		}
		return lowHalf > 250 // head-heavy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWordListDistinct(t *testing.T) {
	words := wordList("w", 50)
	seen := make(map[string]bool)
	for _, w := range words {
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
	}
}
