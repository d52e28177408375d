package willump

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"willump/internal/artifact"
	"willump/internal/core"
	"willump/internal/model"
	"willump/internal/ops"
)

// Save serializes an optimized pipeline into Willump's versioned artifact
// format: graph topology, every fitted operator's learned state, trained
// model weights, cascade threshold and filter-model state, top-K
// configuration, profiled costs, and the resolved options. A saved artifact
// is the unit of deployment: train and Optimize once offline, then Load the
// artifact in any number of serving processes (or hand it to the
// willump-serve binary) with no access to training data.
//
// Local in-memory lookup tables are inlined into the artifact; pipelines
// joining against remote stores serialize unbound table references that
// Load rebinds through WithTableBinding.
func Save(o *Optimized, w io.Writer) error {
	return core.Save(o, w)
}

// SaveFile writes the artifact to path atomically (temp file + rename), so
// a crash mid-save never leaves a truncated artifact where a deployment
// process might pick it up.
func SaveFile(o *Optimized, path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("willump: saving artifact: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Save(o, tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("willump: saving artifact: %w", err)
	}
	// CreateTemp's restrictive 0600 mode would survive the rename; artifacts
	// are deployment inputs read by other users (willump-serve services), so
	// give them ordinary file permissions.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("willump: saving artifact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("willump: saving artifact: %w", err)
	}
	return nil
}

// LoadOption configures artifact loading.
type LoadOption func(*loadConfig)

type loadConfig struct {
	tables  map[string]ops.Table
	resolve core.TableResolver
}

// WithTableBinding supplies a backing table for a lookup operator whose
// table was not inlined into the artifact (remote feature stores). The name
// must match the table name the pipeline was built with; Load fails listing
// every table still unbound.
func WithTableBinding(name string, t Table) LoadOption {
	return func(c *loadConfig) {
		if c.tables == nil {
			c.tables = make(map[string]ops.Table)
		}
		c.tables[name] = t
	}
}

// WithTableResolver supplies a fallback that produces a backing table for
// any unbound table reference WithTableBinding did not cover — typically by
// dialing a remote feature-store client per table name. The resolver is
// consulted once per distinct name; returning (nil, nil) leaves the name
// unbound (and Load fails listing it).
func WithTableResolver(resolve func(name string) (Table, error)) LoadOption {
	return func(c *loadConfig) {
		c.resolve = func(name string) (ops.Table, error) { return resolve(name) }
	}
}

// Load reconstructs an optimized pipeline from an artifact stream written
// by Save: operators are decoded with their fitted state, the weld program
// is recompiled and fused in this process, and the trained models, cascade,
// and top-K filter are reassembled. The loaded pipeline serves predictions
// bit-identical to the one Save captured, without touching training data.
func Load(r io.Reader, opts ...LoadOption) (*Optimized, error) {
	var cfg loadConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.LoadWithResolver(r, cfg.tables, cfg.resolve)
}

// LoadFile loads an artifact from a file written by SaveFile.
func LoadFile(path string, opts ...LoadOption) (*Optimized, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("willump: loading artifact: %w", err)
	}
	defer f.Close()
	o, err := Load(f, opts...)
	if err != nil {
		return nil, fmt.Errorf("willump: loading artifact %s: %w", path, err)
	}
	return o, nil
}

// OpStateMarshaler is implemented by operators whose configuration or
// fitted state must survive Save/Load. Models persist through the identical
// method pair (see RegisterModel).
type OpStateMarshaler = artifact.StateMarshaler

// OpStateUnmarshaler is the decoding half of OpStateMarshaler.
type OpStateUnmarshaler = artifact.StateUnmarshaler

// RegisterOp registers a custom operator implementation under a stable kind
// string so pipelines containing it can be saved and loaded. The factory
// must return a new, empty operator of a single concrete type; operators
// with state implement MarshalState/UnmarshalState (OpStateMarshaler /
// OpStateUnmarshaler). Built-in operators are pre-registered. Registering a
// duplicate kind or type panics.
func RegisterOp(kind string, factory func() Op) {
	ops.RegisterOp(kind, factory)
}

// RegisterModel registers a custom model implementation under a stable kind
// string so optimized pipelines using it can be saved and loaded. The
// factory must return a new, empty model implementing MarshalState and
// UnmarshalState. Built-in model families are pre-registered. Registering a
// duplicate kind or type panics.
func RegisterModel(kind string, factory func() Model) {
	model.RegisterModel(kind, factory)
}
