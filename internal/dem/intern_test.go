package dem

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestInternerFirstSeenIDs interns random short keys, many repeated,
// against a map: ids are dense in first-seen order, a repeat returns
// its id, Lookup finds exactly the interned keys, and order sorts the
// ids as sort.Strings sorts the keys. Keys are 0–11 bytes over a
// three-letter alphabet with 0, so prefixes tie, keys end inside the
// eight-byte prefix, and one key may be a prefix of another.
func TestInternerFirstSeenIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Interner
	want := map[string]int32{}
	var byID []string
	for i := 0; i < 5000; i++ {
		key := make([]byte, rng.Intn(12))
		for j := range key {
			key[j] = "\x00ab"[rng.Intn(3)]
		}
		id, fresh := tab.Intern(key)
		wid, seen := want[string(key)]
		if !seen {
			wid = int32(len(byID))
			want[string(key)] = wid
			byID = append(byID, string(key))
		}
		if id != wid || fresh == seen {
			t.Fatalf("Intern(%q) = %d, %v; want %d, %v", key, id, fresh, wid, !seen)
		}
		probe := append(key, 'z')
		if _, ok := tab.Lookup(probe); ok {
			t.Fatalf("Lookup(%q) found a key never interned", probe)
		}
		if id, ok := tab.Lookup(key); !ok || id != wid {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", key, id, ok, wid)
		}
	}
	sorted := slices.Clone(byID)
	sort.Strings(sorted)
	for i, id := range tab.order() {
		if byID[id] != sorted[i] {
			t.Fatalf("order()[%d] = %q, want %q", i, byID[id], sorted[i])
		}
	}
}
