package weld

import (
	"sync"

	"willump/internal/artifact"
	"willump/internal/graph"
)

// Profile records per-node execution statistics. Node timings are gathered
// during Fit (unfused, sequential execution over the training set), exactly
// as the paper estimates computational cost: "by measuring the runtime of
// the nodes in the IFV's feature generator during model training" (section
// 4.2). Driver time accumulates whenever compiled execution crosses into the
// interpreted runtime and back (marshaling, section 5.2 "Drivers").
type Profile struct {
	mu sync.Mutex

	nodeSeconds map[graph.NodeID]float64
	nodeRows    map[graph.NodeID]int64

	driverSeconds float64
	totalSeconds  float64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		nodeSeconds: make(map[graph.NodeID]float64),
		nodeRows:    make(map[graph.NodeID]int64),
	}
}

// addNode records an execution of node id over rows taking sec seconds.
func (p *Profile) addNode(id graph.NodeID, rows int, sec float64) {
	p.mu.Lock()
	p.nodeSeconds[id] += sec
	p.nodeRows[id] += int64(rows)
	p.mu.Unlock()
}

// addDriver records marshaling time.
func (p *Profile) addDriver(sec float64) {
	p.mu.Lock()
	p.driverSeconds += sec
	p.mu.Unlock()
}

// addTotal records end-to-end execution time.
func (p *Profile) addTotal(sec float64) {
	p.mu.Lock()
	p.totalSeconds += sec
	p.mu.Unlock()
}

// Clone returns an independent copy of the profile's measurements.
func (p *Profile) Clone() *Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := NewProfile()
	for id, sec := range p.nodeSeconds {
		out.nodeSeconds[id] = sec
	}
	for id, rows := range p.nodeRows {
		out.nodeRows[id] = rows
	}
	out.driverSeconds = p.driverSeconds
	out.totalSeconds = p.totalSeconds
	return out
}

// Merge folds from's measurements into p. Costs are additive: merged node
// seconds and rows accumulate, so per-row costs become the sample-weighted
// blend of both profiles.
func (p *Profile) Merge(from *Profile) {
	from.mu.Lock()
	defer from.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, sec := range from.nodeSeconds {
		p.nodeSeconds[id] += sec
	}
	for id, rows := range from.nodeRows {
		p.nodeRows[id] += rows
	}
	p.driverSeconds += from.driverSeconds
	p.totalSeconds += from.totalSeconds
}

// drain moves the profile's measurements into a fresh profile, leaving p
// empty. Adoption uses it so the same measurement is never merged twice.
func (p *Profile) drain() *Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := &Profile{
		nodeSeconds:   p.nodeSeconds,
		nodeRows:      p.nodeRows,
		driverSeconds: p.driverSeconds,
		totalSeconds:  p.totalSeconds,
	}
	p.nodeSeconds = make(map[graph.NodeID]float64)
	p.nodeRows = make(map[graph.NodeID]int64)
	p.driverSeconds = 0
	p.totalSeconds = 0
	return out
}

// NodeCost returns the measured per-row cost of a node in seconds.
func (p *Profile) NodeCost(id graph.NodeID) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	rows := p.nodeRows[id]
	if rows == 0 {
		return 0
	}
	return p.nodeSeconds[id] / float64(rows)
}

// IFVCost returns the measured per-row cost of computing IFV i: the summed
// node costs of its feature generator.
func (p *Profile) IFVCost(a *graph.Analysis, i int) float64 {
	var total float64
	for _, id := range a.IFVs[i].Nodes {
		total += p.NodeCost(id)
	}
	return total
}

// DriverSeconds returns accumulated marshaling time.
func (p *Profile) DriverSeconds() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.driverSeconds
}

// DriverOverheadFraction returns driver time as a fraction of total
// execution time (the section 6.4 Weld-drivers microbenchmark).
func (p *Profile) DriverOverheadFraction() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.totalSeconds == 0 {
		return 0
	}
	return p.driverSeconds / p.totalSeconds
}

// ResetDriver zeroes driver and total accumulators (between experiments).
func (p *Profile) ResetDriver() {
	p.mu.Lock()
	p.driverSeconds = 0
	p.totalSeconds = 0
	p.mu.Unlock()
}

// Snapshot captures the per-node cost measurements for artifact
// serialization, so a deployment process keeps the cost model the pipeline
// was optimized under (query-aware parallelization schedules by these).
func (p *Profile) Snapshot() artifact.Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := artifact.Profile{
		NodeSeconds: make(map[int]artifact.Scalar, len(p.nodeSeconds)),
		NodeRows:    make(map[int]int64, len(p.nodeRows)),
	}
	for id, sec := range p.nodeSeconds {
		out.NodeSeconds[int(id)] = artifact.Scalar(sec)
	}
	for id, rows := range p.nodeRows {
		out.NodeRows[int(id)] = rows
	}
	return out
}

// ProfileFromSnapshot rebuilds a profile from its serialized form.
func ProfileFromSnapshot(spec artifact.Profile) *Profile {
	p := NewProfile()
	for id, sec := range spec.NodeSeconds {
		p.nodeSeconds[graph.NodeID(id)] = float64(sec)
	}
	for id, rows := range spec.NodeRows {
		p.nodeRows[graph.NodeID(id)] = rows
	}
	return p
}
