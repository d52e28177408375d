package willump

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"willump/internal/pipeline"
)

// TestFittedStateFingerprints pins what Optimize learns, across commits:
// for every benchmark pipeline it hashes the saved artifact (minus the
// wall-clock profile) and the test-split predictions, and compares both
// with hashes generated before a refactor of the fitters, learners or
// builders. A refactor that moves a tie-break, an RNG draw, a column
// number or the order of a sum changes a hash.
func TestFittedStateFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints were generated on amd64; other architectures may fuse FMA")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "fitted_fingerprints.golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok {
			want[name] = line
		}
	}
	ctx := context.Background()
	for _, name := range pipeline.Names() {
		b, err := pipeline.ByName(name, pipeline.Config{Seed: 3, N: 1200})
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		o, _, err := Optimize(ctx, b.Pipeline, b.Train, b.Valid)
		if err != nil {
			b.Close()
			t.Fatalf("optimizing %s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := Save(o, &buf); err != nil {
			t.Fatalf("saving %s: %v", name, err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("decoding %s artifact: %v", name, err)
		}
		delete(doc, "profile")
		stripped, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		preds, err := o.PredictBatch(ctx, b.Test.Inputs)
		b.Close()
		if err != nil {
			t.Fatalf("predicting %s: %v", name, err)
		}
		ph := sha256.New()
		for _, p := range preds {
			binary.Write(ph, binary.LittleEndian, math.Float64bits(p))
		}
		artSum := sha256.Sum256(stripped)
		got := fmt.Sprintf("%s artifact=%s predictions=%s", name, hex.EncodeToString(artSum[:]), hex.EncodeToString(ph.Sum(nil)))
		if got != want[name] {
			t.Errorf("fitted state of %s changed:\n got %s\nwant %s", name, got, want[name])
		}
	}
}
