package dem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// keyList is a list of byte strings stored back to back in one arena.
type keyList struct {
	arena []byte
	ends  []int32 // key i is arena[ends[i-1]:ends[i]], with ends[-1] = 0
}

func (l *keyList) add(key []byte) {
	l.arena = append(grown(l.arena, len(key)), key...)
	l.ends = append(grown(l.ends, 1), int32(len(l.arena)))
}

func (l *keyList) key(i int32) []byte {
	from := int32(0)
	if i > 0 {
		from = l.ends[i-1]
	}
	return l.arena[from:l.ends[i]]
}

// grown returns s with room for n more elements. It doubles the
// capacity when it must grow, where append would grow a large slice by
// a quarter and so copy it several times over.
func grown[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	g := make([]T, len(s), max(2*cap(s), len(s)+n, 64))
	copy(g, s)
	return g
}

// order returns the key indices sorted by bytes.Compare of their keys,
// which is the order the sort.Strings of the keys as strings gives.
// Each key's first eight bytes, read big-endian and zero-padded, order
// the keys first: unequal prefixes order as the keys do (a key that
// ends inside the prefix pads with 0, which sorts first as the shorter
// key does). A least-significant-byte radix sort orders the prefixes,
// and only runs of equal prefixes are sorted by the full keys.
func (l *keyList) order() []int32 {
	type entry struct {
		prefix uint64
		id     int32
	}
	es := make([]entry, len(l.ends))
	for i := range es {
		var pad [8]byte
		copy(pad[:], l.key(int32(i)))
		es[i] = entry{binary.BigEndian.Uint64(pad[:]), int32(i)}
	}
	tmp := make([]entry, len(es))
	for shift := uint(0); shift < 64 && len(es) > 1; shift += 8 {
		var count [257]int
		for _, e := range es {
			count[int(byte(e.prefix>>shift))+1]++
		}
		if count[int(byte(es[0].prefix>>shift))+1] == len(es) {
			continue // every prefix has the same byte here
		}
		for b := 1; b < len(count); b++ {
			count[b] += count[b-1]
		}
		for _, e := range es {
			b := byte(e.prefix >> shift)
			tmp[count[b]] = e
			count[b]++
		}
		es, tmp = tmp, es
	}
	for i := 0; i < len(es); {
		j := i + 1
		for j < len(es) && es[j].prefix == es[i].prefix {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(es[i:j], func(a, b entry) int { return bytes.Compare(l.key(a.id), l.key(b.id)) })
		}
		i = j
	}
	ids := make([]int32, len(es))
	for i, e := range es {
		ids[i] = e.id
	}
	return ids
}

// Interner hands out dense ids to byte-string keys in first-seen order.
// The keys live back to back in one arena and the index is an
// open-addressed table of ids, so interning a key that is already
// present allocates nothing, and a table that has grown to its size
// allocates nothing more. It replaces the string-keyed maps that
// extraction, projection, class building and hyperedge decomposition
// once kept. The zero value is an empty table ready for use. Not safe
// for concurrent use.
type Interner struct {
	keyList
	hashes []uint64 // hash of key id
	slots  []int32  // id+1, or 0 for an empty slot; a power of two long
}

// Intern returns key's id, assigning the next one if key is new; fresh
// reports whether it was. The table copies key.
func (t *Interner) Intern(key []byte) (id int32, fresh bool) {
	return t.intern(key, hashKey(key))
}

// intern is Intern with key's hash h supplied by the caller. A table
// must see one hash function throughout.
func (t *Interner) intern(key []byte, h uint64) (id int32, fresh bool) {
	s, id := t.find(key, h)
	if id >= 0 {
		return id, false
	}
	if 2*(len(t.ends)+1) > len(t.slots) {
		t.grow()
		s, _ = t.find(key, h)
	}
	id = int32(len(t.ends))
	t.add(key)
	t.hashes = append(grown(t.hashes, 1), h)
	t.slots[s] = id + 1
	return id, true
}

// Lookup returns key's id, or false if key was never interned.
func (t *Interner) Lookup(key []byte) (int32, bool) {
	_, id := t.find(key, hashKey(key))
	return id, id >= 0
}

// find returns key's id and slot, or −1 and the empty slot where key
// would go. An empty table has no slot.
func (t *Interner) find(key []byte, h uint64) (slot int, id int32) {
	if len(t.slots) == 0 {
		return -1, -1
	}
	mask := len(t.slots) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		e := t.slots[s]
		if e == 0 {
			return s, -1
		}
		if t.hashes[e-1] == h && bytes.Equal(t.key(e-1), key) {
			return s, e - 1
		}
	}
}

// grow doubles the slot table (to 64 slots at first) and reinserts
// every id from its stored hash.
func (t *Interner) grow() {
	n := max(64, 2*len(t.slots))
	t.slots = make([]int32, n)
	mask := n - 1
	for id, h := range t.hashes {
		s := int(h) & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(id) + 1
	}
}

// hashKey mixes key eight bytes at a time, then avalanches the result
// so that the low bits index the table well.
func hashKey(key []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(key)) * m
	for ; len(key) >= 8; key = key[8:] {
		h = bits.RotateLeft64(h^binary.LittleEndian.Uint64(key)*m, 31) * m
	}
	var tail uint64
	for i, b := range key {
		tail |= uint64(b) << (8 * i)
	}
	return mix64(bits.RotateLeft64(h^tail*m, 31) * m)
}

// mix64 is the murmur3 64-bit finalizer: every input bit moves about
// half of the output bits.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
