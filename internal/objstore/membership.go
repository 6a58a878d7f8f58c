package objstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Store-fleet membership: which objstored processes make up the routed
// keyspace. Mirrors the ctrl package's durable-register pattern (a small
// record in the store itself is the source of truth), but lives here —
// ctrl already depends on objstore, and the store plane must be able to
// bootstrap before any job-level control plane exists.
//
// The record is written to *every* member, so a client that knows any
// one seed address can discover the whole fleet. The copy on the anchor
// backend is authoritative (MembersKey is a pinned key); the others are
// bootstrap replicas.

// MembersKey is the object key of the fleet membership record. The
// leading NUL keeps it outside every job's keyspace (job object keys
// start with the job ID, which is printable).
const MembersKey = "\x00cnr/cluster/members"

// EncodeMembers serializes a membership record: sorted, newline-joined
// backend addresses.
func EncodeMembers(addrs []string) []byte {
	sorted := append([]string(nil), addrs...)
	sort.Strings(sorted)
	return []byte(strings.Join(sorted, "\n"))
}

// ErrInvalidMembers marks a membership record or store spec that names
// the fleet incorrectly: blank or duplicate addresses. Rendezvous
// hashing scores backends by name, so a duplicated address would
// silently skew key placement (two identically-named backends split
// every fleet's view of the keyspace differently depending on which
// connection wins) — it must be rejected loudly at decode/connect time.
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

// DecodeMembers parses and validates a membership record. A record with
// blank or duplicate addresses returns an error wrapping
// ErrInvalidMembers.
func DecodeMembers(blob []byte) ([]string, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("%w: empty membership record", ErrInvalidMembers)
	}
	addrs := strings.Split(string(blob), "\n")
	if err := validateMembers(addrs, "membership record"); err != nil {
		return nil, err
	}
	return addrs, nil
}

// PublishMembership writes the membership record for the given backend
// addresses to every one of them, so any single seed address suffices
// for discovery. Call it once after the store fleet is up (the fleet
// example does; deployments can use any member and ckptctl).
func PublishMembership(ctx context.Context, addrs []string, cfg ClientConfig) error {
	if len(addrs) == 0 {
		return fmt.Errorf("objstore: no member addresses")
	}
	if err := validateMembers(addrs, "member list"); err != nil {
		return err
	}
	record := EncodeMembers(addrs)
	for _, addr := range addrs {
		cl, err := Dial(addr, cfg)
		if err != nil {
			return fmt.Errorf("objstore: publish membership to %s: %w", addr, err)
		}
		err = cl.Put(ctx, MembersKey, record)
		cl.Close()
		if err != nil {
			return fmt.Errorf("objstore: publish membership to %s: %w", addr, err)
		}
	}
	return nil
}

// Connect opens the store plane described by spec: a comma-separated
// list of objstored addresses. Every process of a fleet that connects
// with the same member set routes keys identically (rendezvous hashing
// over the sorted address list — see RoutedStore).
//
//   - Multiple addresses: dial each and return a RoutedStore over them
//     (static membership, the "-store host:port,..." flag form).
//   - One address: dial it, then consult the fleet membership record
//     (MembersKey). If present, expand to the full recorded fleet; if
//     absent, the single client is the store.
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
		seed, err := Dial(addrs[0], cfg)
		if err != nil {
			return nil, err
		}
		blob, err := seed.Get(context.Background(), MembersKey)
		if errors.Is(err, ErrNotFound) {
			return seed, nil // standalone store, no fleet record
		}
		if err != nil {
			seed.Close()
			return nil, fmt.Errorf("objstore: read membership via %s: %w", addrs[0], err)
		}
		members, err := DecodeMembers(blob)
		if err != nil {
			seed.Close()
			return nil, err
		}
		// Redial the full recorded fleet; the seed connection served its
		// purpose unless it is itself the whole fleet.
		if len(members) == 1 && members[0] == addrs[0] {
			return seed, nil
		}
		seed.Close()
		addrs = members
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
