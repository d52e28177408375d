package artifact

import (
	"fmt"
	"reflect"
	"sync"
)

// StateMarshaler is implemented by operators and models whose configuration
// or learned state (vocabularies, category maps, scaling statistics,
// weights, ...) persists in an artifact.
type StateMarshaler interface {
	MarshalState() ([]byte, error)
}

// StateUnmarshaler is the decoding half of StateMarshaler: a freshly
// constructed operator or model restores itself from serialized state.
type StateUnmarshaler interface {
	UnmarshalState(state []byte) error
}

// Registry maps stable kind strings to factories and implementation types
// back to their kinds: the one table behind the operator registry in
// internal/ops and the model registry in internal/model. Every type
// appearing in a saved pipeline must be registered, either by its package
// (built-ins) or by the user. What a payload's state must look like stays
// with each package.
type Registry[T any] struct {
	fn        string // the registering function, prefixing panics
	mu        sync.RWMutex
	factories map[string]func() T
	kinds     map[reflect.Type]string
}

// NewRegistry returns an empty registry whose Register panics name fn.
func NewRegistry[T any](fn string) *Registry[T] {
	return &Registry[T]{fn: fn, factories: make(map[string]func() T), kinds: make(map[reflect.Type]string)}
}

// Register records factory under kind and the type of the value it builds.
// The factory must return a new, empty value of a single concrete type.
// Registering a duplicate kind or type panics, mirroring gob.Register.
func (r *Registry[T]) Register(kind string, factory func() T) {
	if kind == "" {
		panic(r.fn + " with empty kind")
	}
	proto := factory()
	if any(proto) == nil {
		panic(fmt.Sprintf("%s(%q): factory returned nil", r.fn, kind))
	}
	t := reflect.TypeOf(proto)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[kind]; dup {
		panic(fmt.Sprintf("%s: kind %q already registered", r.fn, kind))
	}
	if prev, dup := r.kinds[t]; dup {
		panic(fmt.Sprintf("%s: type %v already registered as %q", r.fn, t, prev))
	}
	r.factories[kind] = factory
	r.kinds[t] = kind
}

// Kind returns the kind v's type is registered under.
func (r *Registry[T]) Kind(v T) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	kind, ok := r.kinds[reflect.TypeOf(v)]
	return kind, ok
}

// New builds an empty value of a registered kind.
func (r *Registry[T]) New(kind string) (T, bool) {
	r.mu.RLock()
	factory, ok := r.factories[kind]
	r.mu.RUnlock()
	if !ok {
		var zero T
		return zero, false
	}
	return factory(), true
}
