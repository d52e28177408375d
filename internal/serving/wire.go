package serving

import (
	"fmt"
	"time"

	"willump/internal/core"
	"willump/internal/value"
)

// This file pins the predict routes' wire protocol — request, response,
// per-request options and input column — and the two list envelopes. The
// format is part of the deployment contract the same way the artifact header
// is: golden-file tests in wire_test.go hold it stable, and every added field
// must be optional (omitempty) so old clients and servers interoperate with
// new ones. The read routes have no wire types of their own: /stats,
// /v1/models and /v1/traces serialize ModelStats, ModelInfo and RequestTrace
// directly, and those (with the producers' snapshots ModelStats points to)
// carry the json tags the same goldens pin.

// wireColumn is the JSON wire format for one input column.
type wireColumn struct {
	Kind    string    `json:"kind"`
	Strings []string  `json:"strings,omitempty"`
	Floats  []float64 `json:"floats,omitempty"`
	Ints    []int64   `json:"ints,omitempty"`
}

// wireOptions carries the per-request serving knobs of core.PredictOptions.
// Absent fields apply no override, so a request without options is served
// bit-identically to the pipeline's Optimize-time defaults.
type wireOptions struct {
	// CascadeThreshold overrides the cascade confidence threshold t_c.
	CascadeThreshold *float64 `json:"cascade_threshold,omitempty"`
	// K is the top-K result count (top-K route only).
	K int `json:"k,omitempty"`
	// Budget overrides the top-K filter's candidate subset size.
	Budget int `json:"budget,omitempty"`
	// Point selects the example-at-a-time modality (single-row requests).
	Point bool `json:"point,omitempty"`
	// DeadlineMillis bounds the server-side execution time in (possibly
	// fractional) milliseconds — sub-millisecond deadlines are realistic at
	// this serving layer's latencies and must survive the wire.
	DeadlineMillis float64 `json:"deadline_ms,omitempty"`
	// SmallOnly forces cascade small-model-only scoring (the brownout
	// degrade primitive, also available to clients directly).
	SmallOnly bool `json:"small_only,omitempty"`
	// Criticality classifies the request for brownout ordering ("low",
	// "normal", "high"); high-criticality traffic degrades and sheds last.
	Criticality string `json:"criticality,omitempty"`
}

// wireRequest is a prediction RPC request: a batch of raw inputs plus
// optional per-request options.
type wireRequest struct {
	Inputs  map[string]wireColumn `json:"inputs"`
	Options *wireOptions          `json:"options,omitempty"`
}

// wireResponse carries predictions (predict routes), indices (top-K route),
// or an error. Degraded marks brownout answers ("small-only", "budget",
// "cache"): successful responses produced at reduced fidelity under
// overload; absent on full-fidelity responses so legacy exchanges stay
// byte-identical.
type wireResponse struct {
	Predictions []float64 `json:"predictions,omitempty"`
	Indices     []int     `json:"indices,omitempty"`
	Error       string    `json:"error,omitempty"`
	Degraded    string    `json:"degraded,omitempty"`
}

// wireModelList is the GET /v1/models response.
type wireModelList struct {
	Models []ModelInfo `json:"models"`
}

// wireTraceList is the GET /v1/traces response.
type wireTraceList struct {
	Traces []RequestTrace `json:"traces"`
}

// toPredictOptions converts wire options to the internal per-request
// options. A nil receiver (request without options) yields the zero value.
func (o *wireOptions) toPredictOptions() (core.PredictOptions, error) {
	if o == nil {
		return core.PredictOptions{}, nil
	}
	po := core.PredictOptions{
		CascadeThreshold: o.CascadeThreshold,
		K:                o.K,
		Budget:           o.Budget,
		Point:            o.Point,
		Deadline:         time.Duration(o.DeadlineMillis * float64(time.Millisecond)),
		SmallOnly:        o.SmallOnly,
		Criticality:      o.Criticality,
	}
	if err := po.Validate(); err != nil {
		return core.PredictOptions{}, err
	}
	return po, nil
}

// fromPredictOptions converts internal options to the wire form, nil when
// no override is set so default requests serialize exactly as before the
// options field existed.
func fromPredictOptions(po core.PredictOptions) *wireOptions {
	if po.IsZero() {
		return nil
	}
	return &wireOptions{
		CascadeThreshold: po.CascadeThreshold,
		K:                po.K,
		Budget:           po.Budget,
		Point:            po.Point,
		DeadlineMillis:   float64(po.Deadline) / float64(time.Millisecond),
		SmallOnly:        po.SmallOnly,
		Criticality:      po.Criticality,
	}
}

func encodeInputs(inputs map[string]value.Value) (map[string]wireColumn, error) {
	out := make(map[string]wireColumn, len(inputs))
	for k, v := range inputs {
		switch v.Kind {
		case value.Strings:
			out[k] = wireColumn{Kind: "strings", Strings: v.Strings}
		case value.Floats:
			out[k] = wireColumn{Kind: "floats", Floats: v.Floats}
		case value.Ints:
			out[k] = wireColumn{Kind: "ints", Ints: v.Ints}
		default:
			return nil, fmt.Errorf("serving: cannot serialize %s column %q", v.Kind, k)
		}
	}
	return out, nil
}

func decodeInputs(cols map[string]wireColumn) (map[string]value.Value, int, error) {
	out := make(map[string]value.Value, len(cols))
	n := -1
	for k, c := range cols {
		var v value.Value
		switch c.Kind {
		case "strings":
			v = value.NewStrings(c.Strings)
		case "floats":
			v = value.NewFloats(c.Floats)
		case "ints":
			v = value.NewInts(c.Ints)
		default:
			return nil, 0, fmt.Errorf("serving: unknown column kind %q", c.Kind)
		}
		if n == -1 {
			n = v.Len()
		} else if v.Len() != n {
			return nil, 0, fmt.Errorf("serving: column %q has %d rows, want %d", k, v.Len(), n)
		}
		out[k] = v
	}
	if n <= 0 {
		return nil, 0, fmt.Errorf("serving: empty request")
	}
	return out, n, nil
}
