package model

import (
	"errors"

	"alic/internal/registry"
)

// ErrUnknownModel reports a backend name with no registration.
var ErrUnknownModel = errors.New("unknown model backend")

var builders = registry.New[Builder]("model", ErrUnknownModel)

// Register makes a backend selectable by name, replacing any existing
// registration under the same name. It panics on a nil builder or
// empty name.
func Register(b Builder) {
	if b == nil {
		panic("model: Register with nil builder")
	}
	builders.Register(b.Name(), b)
}

// ByName returns the registered backend, or an error wrapping
// ErrUnknownModel listing the available names.
func ByName(name string) (Builder, error) { return builders.Lookup(name) }

// Names lists the registered backends in sorted order.
func Names() []string { return builders.Names() }

func init() {
	Register(DynatreeBuilder{})
}
