package objstore

import (
	"errors"
	"fmt"
	"strings"
)

// Store-plane membership: which objstored processes make up the routed
// keyspace. There is one way to name it — the comma-separated -store
// spec every process of a fleet is started with (Connect).

// ErrInvalidMembers marks a store spec that names the fleet incorrectly:
// blank or duplicate addresses. Rendezvous hashing scores backends by
// name, so a duplicated address would silently skew key placement (two
// identically-named backends split every fleet's view of the keyspace
// differently depending on which connection wins) — it must be rejected
// loudly at connect time.
var ErrInvalidMembers = errors.New("objstore: invalid membership")

// validateMembers rejects blank and duplicate addresses, wrapping
// ErrInvalidMembers.
func validateMembers(addrs []string, what string) error {
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("%w: blank address in %s", ErrInvalidMembers, what)
		}
		if seen[a] {
			return fmt.Errorf("%w: duplicate address %q in %s", ErrInvalidMembers, a, what)
		}
		seen[a] = true
	}
	return nil
}

// Connect opens the store plane described by spec: a comma-separated
// list of objstored addresses. Every process of a fleet that connects
// with the same member set routes keys identically (rendezvous hashing
// over the sorted address list — see RoutedStore). One address is that
// store, dialed directly; several are a RoutedStore over them.
//
// The returned Store owns every connection it opened; Close releases
// them all.
func Connect(spec string, cfg ClientConfig) (Store, error) {
	var addrs []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("objstore: empty store spec")
	}
	if err := validateMembers(addrs, "store spec"); err != nil {
		return nil, err
	}
	if len(addrs) == 1 {
		cl, err := Dial(addrs[0], cfg)
		if err != nil {
			return nil, err
		}
		return cl, nil
	}
	return dialRouted(addrs, cfg)
}

// dialRouted dials every address and wraps the clients in a RoutedStore
// named by address. Already-dialed clients are closed on failure.
func dialRouted(addrs []string, cfg ClientConfig) (Store, error) {
	backends := make([]Backend, 0, len(addrs))
	for _, addr := range addrs {
		cl, err := Dial(addr, cfg)
		if err != nil {
			for _, b := range backends {
				b.Store.Close()
			}
			return nil, fmt.Errorf("objstore: store backend %s: %w", addr, err)
		}
		backends = append(backends, Backend{Name: addr, Store: cl})
	}
	r, err := NewRouted(backends)
	if err != nil {
		for _, b := range backends {
			b.Store.Close()
		}
		return nil, err
	}
	return r, nil
}
