package protocol

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"destset/internal/predictor"
)

// The engine registry maps protocol names to engine factories so that the
// high-level experiment API can sweep protocol engines — including ones
// registered by callers — without hardcoding the policy→engine mapping.

// Built-in protocol names.
const (
	SnoopingName            = "snooping"
	DirectoryName           = "directory"
	MulticastName           = "multicast"
	PredictiveDirectoryName = "predictive-directory"
)

// EngineFactory builds one engine for a system of nodes. newBank
// returns a fresh, untrained predictor bank (one predictor per node); it
// is nil when the caller configured no prediction policy, and
// predictor-based engines must reject that. Each call must return a new
// engine.
type EngineFactory func(nodes int, newBank func() []predictor.Predictor) (Engine, error)

var engineRegistry = struct {
	sync.RWMutex
	m map[string]EngineFactory
}{m: make(map[string]EngineFactory)}

// RegisterEngine adds a named engine factory. It fails on an empty name,
// a nil factory, or a duplicate name.
func RegisterEngine(name string, f EngineFactory) error {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		return fmt.Errorf("protocol: empty engine name")
	}
	if f == nil {
		return fmt.Errorf("protocol: nil factory for engine %q", name)
	}
	engineRegistry.Lock()
	defer engineRegistry.Unlock()
	if _, dup := engineRegistry.m[key]; dup {
		return fmt.Errorf("protocol: engine %q already registered", key)
	}
	engineRegistry.m[key] = f
	return nil
}

// HasEngine reports whether an engine name is registered.
func HasEngine(name string) bool {
	engineRegistry.RLock()
	defer engineRegistry.RUnlock()
	_, ok := engineRegistry.m[strings.ToLower(strings.TrimSpace(name))]
	return ok
}

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string {
	engineRegistry.RLock()
	defer engineRegistry.RUnlock()
	names := make([]string, 0, len(engineRegistry.m))
	for n := range engineRegistry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewByName builds an engine from a registered protocol name.
func NewByName(name string, nodes int, newBank func() []predictor.Predictor) (Engine, error) {
	engineRegistry.RLock()
	f, ok := engineRegistry.m[strings.ToLower(strings.TrimSpace(name))]
	engineRegistry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("protocol: unknown engine %q (have %v)", name, EngineNames())
	}
	return f(nodes, newBank)
}

func init() {
	mustRegister := func(name string, f EngineFactory) {
		if err := RegisterEngine(name, f); err != nil {
			panic(err)
		}
	}
	mustRegister(SnoopingName, func(nodes int, _ func() []predictor.Predictor) (Engine, error) {
		if nodes <= 0 {
			return nil, fmt.Errorf("protocol: snooping engine needs a node count")
		}
		return NewSnooping(nodes), nil
	})
	mustRegister(DirectoryName, func(int, func() []predictor.Predictor) (Engine, error) {
		return NewDirectory(), nil
	})
	mustRegister(MulticastName, func(_ int, newBank func() []predictor.Predictor) (Engine, error) {
		if newBank == nil {
			return nil, fmt.Errorf("protocol: multicast engine needs a prediction policy")
		}
		return NewMulticast(newBank()), nil
	})
	mustRegister(PredictiveDirectoryName, func(_ int, newBank func() []predictor.Predictor) (Engine, error) {
		if newBank == nil {
			return nil, fmt.Errorf("protocol: predictive-directory engine needs a prediction policy")
		}
		return NewPredictiveDirectory(newBank()), nil
	})
}
