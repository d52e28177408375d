package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"willump/internal/core"
	"willump/internal/value"
)

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInputs(a, b map[string]value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		y, ok := b[k]
		if !ok || x.Kind != y.Kind || x.Len() != y.Len() || !sameFloats(x.Floats, y.Floats) {
			return false
		}
		for i := range x.Strings {
			if x.Strings[i] != y.Strings[i] {
				return false
			}
		}
		for i := range x.Ints {
			if x.Ints[i] != y.Ints[i] {
				return false
			}
		}
	}
	return true
}

func sameOptions(a, b core.PredictOptions) bool {
	if (a.CascadeThreshold == nil) != (b.CascadeThreshold == nil) {
		return false
	}
	if a.CascadeThreshold != nil && math.Float64bits(*a.CascadeThreshold) != math.Float64bits(*b.CascadeThreshold) {
		return false
	}
	a.CascadeThreshold, b.CascadeThreshold = nil, nil
	return a == b
}

// checkDecodeRequest holds the request decoder to the oracle on one body.
func checkDecodeRequest(t *testing.T, body []byte, schema []string) {
	t.Helper()
	wantIn, wantN, wantPO, wantErr := decodeRequestJSON(body)
	if in, n, po, ok := parseRequest(body, schema); ok {
		if wantErr != nil {
			t.Fatalf("fast decoder accepted a body encoding/json rejects (%v): %q", wantErr, body)
		}
		if n != wantN || !sameInputs(in, wantIn) || !sameOptions(po, wantPO) {
			t.Fatalf("fast decoder read %q as\n %v rows=%d %+v\nencoding/json as\n %v rows=%d %+v", body, in, n, po, wantIn, wantN, wantPO)
		}
		// Nothing it allocated was sized by more than the bytes it was given.
		held := 0
		for _, v := range in {
			held += cap(v.Floats) + cap(v.Ints)
		}
		if held > len(body) {
			t.Fatalf("decoded %d numbers' worth of capacity from a %d-byte body", held, len(body))
		}
	}
	in, n, po, err := decodeRequest(body, schema)
	if (err == nil) != (wantErr == nil) || statusFor(err) != statusFor(wantErr) {
		t.Fatalf("decodeRequest(%q) error %v, oracle %v", body, err, wantErr)
	}
	if err == nil && (n != wantN || !sameInputs(in, wantIn) || !sameOptions(po, wantPO)) {
		t.Fatalf("decodeRequest(%q) = %v rows=%d %+v, oracle %v rows=%d %+v", body, in, n, po, wantIn, wantN, wantPO)
	}
}

// checkDecodeResponse holds the reply decoder to json.Decoder on one body.
func checkDecodeResponse(t *testing.T, body []byte) {
	t.Helper()
	var want wireResponse
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	var fast wireResponse
	if parseResponse(body, &fast) {
		if wantErr != nil {
			t.Fatalf("fast decoder accepted a reply encoding/json rejects (%v): %q", wantErr, body)
		}
		if !sameFloats(fast.Predictions, want.Predictions) || fmt.Sprint(fast.Indices) != fmt.Sprint(want.Indices) ||
			fast.Error != want.Error || fast.Degraded != want.Degraded {
			t.Fatalf("fast decoder read reply %q as %+v, encoding/json as %+v", body, fast, want)
		}
	}
	got, err := decodeResponse(body)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decodeResponse(%q) error %v, oracle %v", body, err, wantErr)
	}
	if err == nil && (!sameFloats(got.Predictions, want.Predictions) || fmt.Sprint(got.Indices) != fmt.Sprint(want.Indices) ||
		got.Error != want.Error || got.Degraded != want.Degraded) {
		t.Fatalf("decodeResponse(%q) = %+v, oracle %+v", body, got, want)
	}
}

// checkEncodeRequest holds the request encoder to json.Marshal(wireRequest).
func checkEncodeRequest(t *testing.T, inputs map[string]value.Value, po core.PredictOptions) {
	t.Helper()
	want, wantErr := marshalRequest(inputs, po)
	if got, ok := appendRequest(nil, inputs, po); ok && (wantErr != nil || !bytes.Equal(got, want)) {
		t.Fatalf("fast encoder wrote\n %s\njson.Marshal\n %s (err %v)", got, want, wantErr)
	}
	got, err := encodeRequest(inputs, po)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("encodeRequest error %v, json.Marshal %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("encodeRequest wrote\n %s\njson.Marshal\n %s", got, want)
	}
}

// checkEncodeResponse holds the reply encoder to json.Encoder, trailing
// newline included.
func checkEncodeResponse(t *testing.T, resp wireResponse) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(resp)
	if got, ok := appendResponse(nil, &resp); ok && (wantErr != nil || !bytes.Equal(got, want.Bytes())) {
		t.Fatalf("fast encoder wrote reply\n %q\njson.Encoder\n %q (err %v)", got, want.Bytes(), wantErr)
	}
}

// wireSeeds are bodies chosen to sit on every edge the decoders decide at:
// what they read themselves, and each reason they have to decline.
var wireSeeds = []string{
	`{"inputs":{"x":{"kind":"floats","floats":[1,2,3]}}}`,
	`{"inputs":{"id":{"kind":"ints","ints":[7,8]},"score":{"kind":"floats","floats":[1.5,-2.25]},"title":{"kind":"strings","strings":["abc","def"]}},"options":{"cascade_threshold":0.85,"k":10,"budget":200,"deadline_ms":1500}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[0.5]}},"options":{"point":true,"small_only":true,"criticality":"high"}}`,
	`{"predictions":[0.25,0.75]}` + "\n",
	`{"indices":[4,1,3],"degraded":"budget"}` + "\n",
	`{"error":"serving: empty request"}` + "\n",
	`{"predictions":[1e21,1e-7,-0,5e-324,1.7976931348623157e308],"degraded":"small-only"}`,
	" {\n \"inputs\" : { \"x\" : { \"floats\" : [ 1 , 2 ] , \"kind\" : \"floats\" } } }\r\n",
	`{"inputs":{"x":{"kind":"floats","floats":[1]},"x":{"kind":"floats","floats":[2]}}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[1],"floats":[2]}}}`,
	`{"inputs":{"x":{"Kind":"floats","FLOATS":[1]}}}`,
	`{"Inputs":{"x":{"kind":"floats","floats":[1]}}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[1]}},"inputs":{"y":{"kind":"floats","floats":[2]}}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[1]}},"unknown":{"a":[1,{"b":null}]}}`,
	`{"inputs":{"x":{"kind":"floats","floats":null}}}`,
	`{"inputs":null}`,
	`null`,
	`{"inputs":{"x":{"kind":"floats","floats":[1]}},"options":null}`,
	`{"inputs":{"x":{"kind":"floats","floats":[1]}},"options":{}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[1]}},"options":{"k":-1}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[1]}},"options":{"k":1.0}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[1]}},"options":{"criticality":"urgent"}}`,
	`{"inputs":{"t":{"kind":"strings","strings":["a\"b","é","é","<&>"," ",""]}}}`,
	"{\"inputs\":{\"t\":{\"kind\":\"strings\",\"strings\":[\"\xff\xfe\",\"tab\there\"]}}}",
	`{"inputs":{"x":{"kind":"floats","floats":[1,2]},"y":{"kind":"floats","floats":[1]}}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[]}}}`,
	`{"inputs":{"x":{"kind":"floats"}}}`,
	`{"inputs":{"x":{"kind":"matrix","floats":[1]}}}`,
	`{"inputs":{"x":{"kind":"ints","ints":[1.0]}}}`,
	`{"inputs":{"x":{"kind":"ints","ints":[9223372036854775807,-9223372036854775808]}}}`,
	`{"inputs":{"x":{"kind":"ints","ints":[9223372036854775808]}}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[1e999]}}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[01]}}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[1,]}}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[-]}}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[1.e3]}}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[NaN]}}}`,
	`{"inputs":{"x":{"kind":"floats","floats":[1]}}} trailing`,
	`{"inputs":{"x":{"kind":"floats","floats":[1]}}`,
	`{"inputs":{"":{"kind":"ints","ints":[0]}}}`,
	`{"predictions":[]}`,
	`{"predictions":null,"error":"x"}`,
	`{"predictions":[1],"predictions":[2]}`,
	`{"error":"model \"m\" not found"}`,
	``,
	`[`,
}

// FuzzWireCodec holds both halves of the codec to encoding/json. For any body:
// whatever the fast decoders accept, encoding/json reads identically, and
// decodeRequest/decodeResponse as a whole answer what the oracle answers,
// errors by class. For any column contents and options: the fast encoders'
// bytes are json.Marshal's and json.Encoder's, and so are encodeRequest's
// errors.
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s), "x", "abc", math.Float64bits(1.5), int64(7), uint8(0))
	}
	for _, fl := range []float64{math.Copysign(0, -1), 5e-324, 1e21, 999999999999999868928, 1e-6, 9.999999999999999e-7, 1e-7, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1), 0.1, 100} {
		f.Add([]byte(`{}`), "score", "", math.Float64bits(fl), int64(math.MaxInt64), uint8(0xff))
	}
	for _, s := range []string{"", "a\"b", "back\\slash", "<html>&", "é", "\xff\xfe", "  ", "tab\t", "\x7f", "日本語"} {
		f.Add([]byte(`{}`), s, s, math.Float64bits(2), int64(math.MinInt64), uint8(0x55))
	}
	// Every golden wire file is a seed too, in the indented form it is kept in.
	goldens, err := filepath.Glob(filepath.Join("testdata", "wire_re*.golden.json"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no wire goldens to seed from: %v", err)
	}
	for _, g := range goldens {
		raw, err := os.ReadFile(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, "x", "abc", math.Float64bits(0.25), int64(1), uint8(1))
	}
	schema := []string{"x", "score", "title"}
	f.Fuzz(func(t *testing.T, body []byte, name, str string, fbits uint64, iv int64, flags uint8) {
		checkDecodeRequest(t, body, schema)
		checkDecodeRequest(t, body, nil)
		checkDecodeResponse(t, body)

		fl := math.Float64frombits(fbits)
		inputs := map[string]value.Value{
			name:          value.NewStrings([]string{str, name}),
			"f" + name:    value.NewFloats([]float64{fl, -fl}),
			"i":           value.NewInts([]int64{iv, -iv}),
			"empty" + str: value.NewFloats(nil),
		}
		if flags&1 != 0 {
			delete(inputs, "i")
		}
		if flags&2 != 0 {
			inputs["m"] = value.NewTokens(nil) // not a wire kind
		}
		var po core.PredictOptions
		if flags&4 != 0 {
			po.CascadeThreshold = &fl
		}
		if flags&8 != 0 {
			po.K, po.Budget = int(iv), int(-iv)
		}
		if flags&16 != 0 {
			po.Point, po.SmallOnly = true, flags&32 != 0
		}
		if flags&64 != 0 {
			po.Deadline = time.Duration(iv)
		}
		if flags&128 != 0 {
			po.Criticality = str
		}
		checkEncodeRequest(t, inputs, po)
		// What the encoder wrote, the decoder must read back (through either
		// path) as the request it was given.
		if body, err := encodeRequest(inputs, po); err == nil {
			checkDecodeRequest(t, body, schema)
		}

		resp := wireResponse{Degraded: str}
		if flags&1 != 0 {
			resp.Predictions = []float64{fl, 0, -fl}
		}
		if flags&2 != 0 {
			resp.Indices = []int{int(iv), 0}
		}
		if flags&4 != 0 {
			resp.Error = name
		}
		checkEncodeResponse(t, resp)
	})
}

// TestWireCodecReadsItsGoldensItself: the codec must not pass the oracle
// test by declining everything. The compact form of each request and reply
// golden — what Client and Server actually exchange — is read by the fast
// decoders and written by the fast encoders.
func TestWireCodecReadsItsGoldensItself(t *testing.T) {
	compact := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := json.Compact(&out, raw); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	for _, name := range []string{"wire_request_legacy.golden.json", "wire_request_options.golden.json", "wire_request_brownout.golden.json"} {
		body := compact(name)
		in, _, po, ok := parseRequest(body, nil)
		if !ok {
			t.Errorf("%s: fast decoder declined %s", name, body)
			continue
		}
		got, ok := appendRequest(nil, in, po)
		if !ok || !bytes.Equal(got, body) {
			t.Errorf("%s: fast encoder wrote %s (ok=%v), golden is %s", name, got, ok, body)
		}
	}
	for _, name := range []string{"wire_response_predictions.golden.json", "wire_response_indices.golden.json", "wire_response_degraded.golden.json", "wire_response_error.golden.json"} {
		body := compact(name)
		var resp wireResponse
		if !parseResponse(body, &resp) {
			t.Errorf("%s: fast decoder declined %s", name, body)
			continue
		}
		got, ok := appendResponse(nil, &resp)
		if !ok || !bytes.Equal(got, append(body, '\n')) {
			t.Errorf("%s: fast encoder wrote %q (ok=%v), golden is %q", name, got, ok, body)
		}
	}
}

// TestWireBufDropsLargeBuffers: a buffer grown past the pooling bound is left
// to the collector, and reading sizes the buffer by what arrives.
func TestWireBufDropsLargeBuffers(t *testing.T) {
	wb := &wireBuf{}
	big := bytes.Repeat([]byte("x"), maxPooledWireBuf+1)
	if err := wb.readAll(bytes.NewReader(big)); err != nil || !bytes.Equal(wb.b, big) {
		t.Fatalf("readAll: %d bytes, err %v", len(wb.b), err)
	}
	wb.release()
	if len(wb.b) == 0 {
		t.Error("a buffer past the pooling bound was reset for reuse; it must be dropped")
	}
	small := &wireBuf{}
	if err := small.readAll(bytes.NewReader([]byte("abc"))); err != nil || string(small.b) != "abc" {
		t.Fatalf("readAll small: %q, %v", small.b, err)
	}
	if cap(small.b) > 1024 {
		t.Errorf("3-byte body grew the buffer to %d", cap(small.b))
	}
	small.release()
	if len(small.b) != 0 {
		t.Error("a small buffer was not reset on release")
	}
}
