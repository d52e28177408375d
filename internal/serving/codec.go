package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"willump/internal/core"
	"willump/internal/value"
)

// This file is the predict routes' codec: hand-written encode and decode of
// wireRequest and wireResponse over pooled byte buffers. The wire* structs
// in wire.go stay the schema and encoding/json stays the oracle: the encoders
// emit exactly the bytes json.Marshal / json.Encoder would, and the decoders
// accept only the plain subset of JSON they can prove they read the way
// encoding/json does (exact lower-case keys, each at most once, printable
// ASCII strings without escapes, no null). Anything else they decline, and
// the caller runs encoding/json over the same buffered bytes — so every
// error, and every answer to an unusual body, is still encoding/json's.
// FuzzWireCodec holds both halves to that.
//
// Only bytes are pooled, and only those nobody else can still be reading: the
// client's request body is net/http's once sent (see encodeRequest). Decoded
// columns and predictions are retained past the request (adaptation
// reservoir, prediction cache, abandoned followers) and are always freshly
// allocated.

// wireBuf is a pooled body buffer.
type wireBuf struct{ b []byte }

// maxPooledWireBuf bounds what returns to the pool: one large batch must not
// pin its buffer for the life of the process.
const maxPooledWireBuf = 64 << 10

var wireBufPool = sync.Pool{New: func() any { return new(wireBuf) }}

func getWireBuf() *wireBuf { return wireBufPool.Get().(*wireBuf) }

func (wb *wireBuf) release() {
	if cap(wb.b) > maxPooledWireBuf {
		return
	}
	wb.b = wb.b[:0]
	wireBufPool.Put(wb)
}

// readAll reads r to EOF. The buffer grows as bytes arrive, never from a
// length the peer merely declared.
func (wb *wireBuf) readAll(r io.Reader) error {
	b := wb.b[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			wb.b = b
			if err == io.EOF {
				return nil
			}
			return err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// encodeRequest is the request's wire form in a slice of its own, not a
// pooled one: net/http's transport may go on reading a request body after the
// exchange has failed or been answered early (it only promises to Close it,
// and may replay it through GetBody after that).
func encodeRequest(inputs map[string]value.Value, po core.PredictOptions) ([]byte, error) {
	if b, ok := appendRequest(make([]byte, 0, 512), inputs, po); ok {
		return b, nil
	}
	return marshalRequest(inputs, po)
}

// marshalRequest is the request's wire form by way of the wire structs and
// encoding/json: what appendRequest must equal, and its fallback.
func marshalRequest(inputs map[string]value.Value, po core.PredictOptions) ([]byte, error) {
	cols, err := encodeInputs(inputs)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wireRequest{Inputs: cols, Options: fromPredictOptions(po)})
}

// decodeRequest parses a prediction/top-K request body. schema is the hosted
// model's input column names (nil when unknown): request columns that match
// reuse those strings instead of allocating their own.
func decodeRequest(body []byte, schema []string) (map[string]value.Value, int, core.PredictOptions, error) {
	if inputs, n, po, ok := parseRequest(body, schema); ok {
		return inputs, n, po, nil
	}
	return decodeRequestJSON(body)
}

// decodeRequestJSON is decodeRequest by way of the wire structs and
// encoding/json: what parseRequest must agree with, and its fallback.
func decodeRequestJSON(body []byte) (map[string]value.Value, int, core.PredictOptions, error) {
	var req wireRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, 0, core.PredictOptions{}, badRequestf("decoding request: %v", err)
	}
	inputs, n, err := decodeInputs(req.Inputs)
	if err != nil {
		return nil, 0, core.PredictOptions{}, fmt.Errorf("%w: %s", errBadRequest, err)
	}
	po, err := req.Options.toPredictOptions()
	if err != nil {
		return nil, 0, core.PredictOptions{}, fmt.Errorf("%w: %s", errBadRequest, err)
	}
	return inputs, n, po, nil
}

// decodeResponse parses a reply body.
func decodeResponse(body []byte) (wireResponse, error) {
	var out wireResponse
	if parseResponse(body, &out) {
		return out, nil
	}
	return decodeResponseJSON(body)
}

// decodeResponseJSON is the encoding/json path (apart, so that only its
// wireResponse is forced to the heap).
func decodeResponseJSON(body []byte) (out wireResponse, err error) {
	err = json.NewDecoder(bytes.NewReader(body)).Decode(&out)
	return out, err
}

// plainOut reports whether encoding/json (HTML escaping on) writes s between
// quotes unchanged.
func plainOut(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendFloat writes f the way encoding/json does (ES6 number formatting);
// false for NaN and infinities, which json.Marshal rejects.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendKey opens the next object member: *sep is '{' before the first and
// ',' after.
func appendKey(b []byte, sep *byte, name string) []byte {
	b = append(b, *sep, '"')
	*sep = ','
	b = append(b, name...)
	return append(b, '"', ':')
}

// closeObject ends an object whose members were opened with appendKey.
func closeObject(b []byte, sep byte) []byte {
	if sep == '{' {
		b = append(b, '{')
	}
	return append(b, '}')
}

// appendString writes s between quotes, or declines a string encoding/json
// would have to escape.
func appendString(b []byte, s string) ([]byte, bool) {
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), plainOut(s)
}

func appendInt[T int | int64](b []byte, x T) ([]byte, bool) {
	return strconv.AppendInt(b, int64(x), 10), true
}

// appendArray writes xs as an array, each element through elem.
func appendArray[T any](b []byte, xs []T, elem func([]byte, T) ([]byte, bool)) ([]byte, bool) {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = elem(b, x); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// appendRequest appends json.Marshal(wireRequest{...}) for inputs and po, or
// declines.
func appendRequest(b []byte, inputs map[string]value.Value, po core.PredictOptions) ([]byte, bool) {
	var stack [16]string
	names := stack[:0]
	for k := range inputs {
		if !plainOut(k) {
			return b, false
		}
		names = append(names, k)
	}
	slices.Sort(names)
	b = append(b, `{"inputs":`...)
	sep := byte('{')
	for _, k := range names {
		v := inputs[k]
		// A wire column's kind and the member holding its rows (omitted when
		// empty) both carry the value kind's name.
		kind, ok := v.Kind.String(), true
		b = append(appendKey(b, &sep, k), `{"kind":"`...)
		b = append(append(b, kind...), '"')
		if v.Len() > 0 {
			b = append(append(append(b, `,"`...), kind...), `":`...)
		}
		switch {
		case v.Kind != value.Strings && v.Kind != value.Floats && v.Kind != value.Ints:
			return b, false
		case v.Len() == 0:
		case v.Kind == value.Strings:
			b, ok = appendArray(b, v.Strings, appendString)
		case v.Kind == value.Floats:
			b, ok = appendArray(b, v.Floats, appendFloat)
		default:
			b, ok = appendArray(b, v.Ints, appendInt[int64])
		}
		if !ok {
			return b, false
		}
		b = append(b, '}')
	}
	b = closeObject(b, sep)
	if !po.IsZero() {
		var ok bool
		if b, ok = appendOptions(append(b, `,"options":`...), fromPredictOptions(po)); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// appendOptions appends json.Marshal(o): fields in declaration order, each
// omitted at its zero value.
func appendOptions(b []byte, o *wireOptions) ([]byte, bool) {
	sep, ok := byte('{'), true
	if o.CascadeThreshold != nil {
		if b, ok = appendFloat(appendKey(b, &sep, "cascade_threshold"), *o.CascadeThreshold); !ok {
			return b, false
		}
	}
	if o.K != 0 {
		b, _ = appendInt(appendKey(b, &sep, "k"), o.K)
	}
	if o.Budget != 0 {
		b, _ = appendInt(appendKey(b, &sep, "budget"), o.Budget)
	}
	if o.Point {
		b = append(appendKey(b, &sep, "point"), "true"...)
	}
	if o.DeadlineMillis != 0 {
		if b, ok = appendFloat(appendKey(b, &sep, "deadline_ms"), o.DeadlineMillis); !ok {
			return b, false
		}
	}
	if o.SmallOnly {
		b = append(appendKey(b, &sep, "small_only"), "true"...)
	}
	if o.Criticality != "" {
		if b, ok = appendString(appendKey(b, &sep, "criticality"), o.Criticality); !ok {
			return b, false
		}
	}
	return closeObject(b, sep), true
}

// appendResponse appends what json.NewEncoder(w).Encode(r) writes, newline
// included, or declines.
func appendResponse(b []byte, r *wireResponse) ([]byte, bool) {
	sep, ok := byte('{'), true
	if len(r.Predictions) > 0 {
		if b, ok = appendArray(appendKey(b, &sep, "predictions"), r.Predictions, appendFloat); !ok {
			return b, false
		}
	}
	if len(r.Indices) > 0 {
		b, _ = appendArray(appendKey(b, &sep, "indices"), r.Indices, appendInt[int])
	}
	if r.Error != "" {
		if b, ok = appendString(appendKey(b, &sep, "error"), r.Error); !ok {
			return b, false
		}
	}
	if r.Degraded != "" {
		if b, ok = appendString(appendKey(b, &sep, "degraded"), r.Degraded); !ok {
			return b, false
		}
	}
	return append(closeObject(b, sep), '\n'), true
}

// wireParser walks one buffered JSON body. Every method leaves ok-false
// results to the caller, who declines the whole body.
type wireParser struct {
	b []byte
	i int
}

func (p *wireParser) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next non-space byte.
func (p *wireParser) eat(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// more consumes the separator after an object member or array element: a
// comma (another follows) or the closing byte.
func (p *wireParser) more(closing byte) (more, ok bool) {
	p.skipSpace()
	if p.i >= len(p.b) {
		return false, false
	}
	c := p.b[p.i]
	p.i++
	return c == ',', c == ',' || c == closing
}

// str consumes a string of printable ASCII without escapes and returns its
// contents, which alias the body.
func (p *wireParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// key consumes an object member's name and colon.
func (p *wireParser) key() ([]byte, bool) {
	k, ok := p.str()
	return k, ok && p.eat(':')
}

func (p *wireParser) digits() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// number consumes one number literal of the JSON grammar; integer reports
// that it has neither fraction nor exponent.
func (p *wireParser) number() (lit []byte, integer, ok bool) {
	p.skipSpace()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	if p.i < len(p.b) && p.b[p.i] == '0' {
		p.i++
	} else if !p.digits() {
		return nil, false, false
	}
	integer = true
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if integer = false; !p.digits() {
			return nil, false, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if integer = false; !p.digits() {
			return nil, false, false
		}
	}
	return p.b[start:p.i], integer, true
}

func (p *wireParser) float() (float64, bool) {
	lit, _, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

func (p *wireParser) int() (int64, bool) {
	lit, integer, ok := p.number()
	if !ok || !integer {
		return 0, false
	}
	x, err := strconv.ParseInt(string(lit), 10, 64)
	return x, err == nil
}

func (p *wireParser) bool() (v, ok bool) {
	p.skipSpace()
	switch rest := p.b[p.i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		p.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		p.i += 5
		return false, true
	}
	return false, false
}

// elems sizes an array of numbers from the bytes already read: one more than
// the commas before its closing bracket.
func (p *wireParser) elems() int {
	end := bytes.IndexByte(p.b[p.i:], ']')
	if end < 0 {
		return 1
	}
	return 1 + bytes.Count(p.b[p.i:p.i+end], comma)
}

var comma = []byte{','}

// array consumes an array through elem, which consumes one element.
func (p *wireParser) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if more, ok := p.more(']'); !more {
			return ok
		}
	}
}

func (p *wireParser) floats() (out []float64, ok bool) {
	ok = p.array(func() bool {
		if out == nil {
			out = make([]float64, 0, p.elems())
		}
		f, ok := p.float()
		out = append(out, f)
		return ok
	})
	return out, ok
}

func (p *wireParser) ints() (out []int64, ok bool) {
	ok = p.array(func() bool {
		if out == nil {
			out = make([]int64, 0, p.elems())
		}
		x, ok := p.int()
		out = append(out, x)
		return ok
	})
	return out, ok
}

func (p *wireParser) strings() (out []string, ok bool) {
	ok = p.array(func() bool {
		s, ok := p.str()
		out = append(out, string(s))
		return ok
	})
	return out, ok
}

// object consumes an object through member, which consumes the value of the
// named member and returns the bit identifying it; ok false declines, as a
// name the schema does not have (in any spelling) must. A repeated bit
// declines; bit 0 is not tracked.
func (p *wireParser) object(member func(name []byte) (bit uint, ok bool)) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	var seen uint
	for {
		name, ok := p.key()
		if !ok {
			return false
		}
		bit, ok := member(name)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := p.more('}'); !more {
			return ok
		}
	}
}

// column consumes one wireColumn and converts it as decodeInputs does.
func (p *wireParser) column() (value.Value, bool) {
	var kind []byte
	var strs []string
	var floats []float64
	var ints []int64
	ok := p.object(func(name []byte) (bit uint, ok bool) {
		switch string(name) {
		case "kind":
			kind, ok = p.str()
			bit = 1
		case "strings":
			strs, ok = p.strings()
			bit = 2
		case "floats":
			floats, ok = p.floats()
			bit = 4
		case "ints":
			ints, ok = p.ints()
			bit = 8
		}
		return bit, ok
	})
	if !ok {
		return value.Value{}, false
	}
	switch string(kind) {
	case "strings":
		return value.NewStrings(strs), true
	case "floats":
		return value.NewFloats(floats), true
	case "ints":
		return value.NewInts(ints), true
	}
	return value.Value{}, false
}

// options consumes one wireOptions.
func (p *wireParser) options(o *wireOptions) bool {
	return p.object(func(name []byte) (bit uint, ok bool) {
		switch string(name) {
		case "cascade_threshold":
			var t float64
			t, ok = p.float()
			o.CascadeThreshold = &t
			bit = 1
		case "k":
			var x int64
			x, ok = p.int()
			o.K = int(x)
			ok = ok && int64(o.K) == x
			bit = 2
		case "budget":
			var x int64
			x, ok = p.int()
			o.Budget = int(x)
			ok = ok && int64(o.Budget) == x
			bit = 4
		case "point":
			o.Point, ok = p.bool()
			bit = 8
		case "deadline_ms":
			o.DeadlineMillis, ok = p.float()
			bit = 16
		case "small_only":
			o.SmallOnly, ok = p.bool()
			bit = 32
		case "criticality":
			var s []byte
			s, ok = p.str()
			o.Criticality = string(s)
			bit = 64
		}
		return bit, ok
	})
}

// parseRequest reads a request body the way decodeRequest's encoding/json
// path would, or declines. It only ever answers with a servable request:
// every malformed or inconsistent body is declined, so its error comes from
// that path.
func parseRequest(body []byte, schema []string) (inputs map[string]value.Value, n int, po core.PredictOptions, ok bool) {
	p := wireParser{b: body}
	var opts *wireOptions
	n = -1
	ok = p.object(func(name []byte) (bit uint, ok bool) {
		switch string(name) {
		case "inputs":
			inputs = make(map[string]value.Value, len(schema))
			return 1, p.object(func(name []byte) (uint, bool) {
				v, ok := p.column()
				if n == -1 {
					n = v.Len()
				}
				if _, dup := inputs[string(name)]; !ok || dup || v.Len() != n {
					return 0, false
				}
				inputs[internName(schema, name)] = v
				return 0, true
			})
		case "options":
			opts = new(wireOptions)
			return 2, p.options(opts)
		}
		return 0, false
	})
	if !ok || n <= 0 {
		return nil, 0, core.PredictOptions{}, false
	}
	po, err := opts.toPredictOptions()
	if err != nil {
		return nil, 0, core.PredictOptions{}, false
	}
	return inputs, n, po, true
}

// internName returns the schema's own string for a column it names.
func internName(schema []string, name []byte) string {
	for _, s := range schema {
		if s == string(name) {
			return s
		}
	}
	return string(name)
}

// parseResponse reads a reply body into out the way json.Decoder would, or
// declines (out is then unspecified).
func parseResponse(body []byte, out *wireResponse) bool {
	p := wireParser{b: body}
	return p.object(func(name []byte) (bit uint, ok bool) {
		switch string(name) {
		case "predictions":
			out.Predictions, ok = p.floats()
			bit = 1
		case "indices":
			var xs []int64
			xs, ok = p.ints()
			out.Indices = make([]int, len(xs))
			for i, x := range xs {
				out.Indices[i] = int(x)
				ok = ok && int64(out.Indices[i]) == x
			}
			bit = 2
		case "error":
			var s []byte
			s, ok = p.str()
			out.Error = string(s)
			bit = 4
		case "degraded":
			var s []byte
			s, ok = p.str()
			out.Degraded = string(s)
			bit = 8
		}
		return bit, ok
	})
}
