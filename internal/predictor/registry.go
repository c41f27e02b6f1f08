package predictor

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The policy registry maps names to predictor factories so that callers
// can sweep custom policies through the same high-level machinery as the
// paper's Table 3 policies. The built-in policies register themselves at
// package initialization; user policies register through Register (the
// destset facade re-exports it as RegisterPolicy).

// Factory builds one node's predictor from a configuration. The Policy
// field of the configuration is advisory for custom factories: built-in
// factories overwrite it with their own policy, custom factories are free
// to ignore it and use only the capacity/indexing fields.
type Factory func(cfg Config) Predictor

var policyRegistry = struct {
	sync.RWMutex
	m map[string]Factory
}{m: make(map[string]Factory)}

// CanonicalName normalizes a policy name for registry lookup: lower-case
// with spaces, hyphens and underscores removed, so "BroadcastIfShared",
// "broadcast-if-shared" and "broadcast_if_shared" all resolve to the same
// factory.
func CanonicalName(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(name)) {
		switch r {
		case ' ', '-', '_':
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Register adds a named policy factory. It fails on an empty name, a nil
// factory, or a name (after normalization) that is already taken.
func Register(name string, f Factory) error {
	key := CanonicalName(name)
	if key == "" {
		return fmt.Errorf("predictor: empty policy name %q", name)
	}
	if f == nil {
		return fmt.Errorf("predictor: nil factory for policy %q", name)
	}
	policyRegistry.Lock()
	defer policyRegistry.Unlock()
	if _, dup := policyRegistry.m[key]; dup {
		return fmt.Errorf("predictor: policy %q already registered", key)
	}
	policyRegistry.m[key] = f
	return nil
}

// LookupFactory returns the factory registered under name, if any.
func LookupFactory(name string) (Factory, bool) {
	policyRegistry.RLock()
	defer policyRegistry.RUnlock()
	f, ok := policyRegistry.m[CanonicalName(name)]
	return f, ok
}

// RegisteredPolicies returns the registered policy names (normalized,
// sorted). Aliases appear individually.
func RegisteredPolicies() []string {
	policyRegistry.RLock()
	defer policyRegistry.RUnlock()
	names := make([]string, 0, len(policyRegistry.m))
	for n := range policyRegistry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// builtinPolicies are the paper's policies plus the reference policies,
// registered under their canonical names at package initialization.
var builtinPolicies = []Policy{
	Owner, BroadcastIfShared, Group, OwnerGroup,
	StickySpatial, Minimal, Broadcast, Oracle,
}

// policyAliases returns the canonical registry keys of a built-in policy:
// the String() form plus, for StickySpatial, the bare name without the
// "(1)" neighbor-count suffix.
func policyAliases(p Policy) []string {
	aliases := []string{CanonicalName(p.String())}
	if p == StickySpatial {
		aliases = append(aliases, "stickyspatial")
	}
	return aliases
}

// BuiltinPolicy returns the built-in policy registered under name, or
// false when name is not one of the built-in policies' names (Register
// refuses those to custom policies).
func BuiltinPolicy(name string) (Policy, bool) {
	key := CanonicalName(name)
	for _, p := range builtinPolicies {
		for _, alias := range policyAliases(p) {
			if alias == key {
				return p, true
			}
		}
	}
	return 0, false
}

func init() {
	for _, p := range builtinPolicies {
		p := p
		factory := func(cfg Config) Predictor {
			cfg.Policy = p
			return New(cfg)
		}
		for _, alias := range policyAliases(p) {
			if err := Register(alias, factory); err != nil {
				panic(err)
			}
		}
	}
}
