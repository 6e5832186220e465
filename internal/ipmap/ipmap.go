// Package ipmap implements longest-prefix-match lookup from IP addresses to
// autonomous system numbers, the "IP to AS mapping ... using longest prefix
// match" step of the paper's alarm aggregation (§6).
//
// The table is a binary radix trie over address bits, one per IP family.
// In the paper the table is fed from BGP routing data; in this reproduction
// it is fed from the simulator's prefix announcements, but the lookup
// semantics are identical.
package ipmap

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
)

// ASN is an autonomous system number. Zero means "unknown".
type ASN uint32

// String renders the conventional "ASxxxx" form. strconv instead of
// fmt.Sprintf: aggregation summaries and reports format thousands of these
// and the reflection path allocates several times per call.
func (a ASN) String() string { return "AS" + strconv.FormatUint(uint64(a), 10) }

type node struct {
	children [2]*node
	asn      ASN
	valid    bool
}

// Table maps IP prefixes to origin ASNs with longest-prefix-match lookup.
// The zero value is an empty table ready for use. Table is not safe for
// concurrent mutation; concurrent lookups after all inserts are safe.
type Table struct {
	v4, v6 *node
	size   int
}

// Add inserts a prefix→ASN mapping, overwriting any previous mapping for the
// exact same prefix. Invalid prefixes are rejected with an error.
func (t *Table) Add(prefix netip.Prefix, asn ASN) error {
	if !prefix.IsValid() {
		return fmt.Errorf("ipmap: invalid prefix %v", prefix)
	}
	prefix = prefix.Masked()
	root := &t.v6
	if prefix.Addr().Is4() {
		root = &t.v4
	}
	if *root == nil {
		*root = &node{}
	}
	n := *root
	bits := prefix.Bits()
	addr := prefix.Addr()
	for i := 0; i < bits; i++ {
		b := bit(addr, i)
		if n.children[b] == nil {
			n.children[b] = &node{}
		}
		n = n.children[b]
	}
	if !n.valid {
		t.size++
	}
	n.asn = asn
	n.valid = true
	return nil
}

// Lookup returns the ASN of the longest matching prefix for addr.
// ok is false when no prefix covers the address.
func (t *Table) Lookup(addr netip.Addr) (asn ASN, ok bool) {
	if !addr.IsValid() {
		return 0, false
	}
	n := t.v6
	maxBits := 128
	if addr.Is4() {
		n = t.v4
		maxBits = 32
	}
	for i := 0; n != nil; i++ {
		if n.valid {
			asn, ok = n.asn, true
		}
		if i >= maxBits {
			break
		}
		n = n.children[bit(addr, i)]
	}
	return asn, ok
}

// Len returns the number of distinct prefixes in the table.
func (t *Table) Len() int { return t.size }

// Entry is one prefix→ASN mapping, as returned by Entries.
type Entry struct {
	Prefix netip.Prefix
	ASN    ASN
}

// Entries returns all mappings sorted by prefix string; useful for dumps and
// tests.
func (t *Table) Entries() []Entry {
	var out []Entry
	var walk func(n *node, addr [16]byte, depth int, is4 bool)
	walk = func(n *node, addr [16]byte, depth int, is4 bool) {
		if n == nil {
			return
		}
		if n.valid {
			var p netip.Prefix
			if is4 {
				var a4 [4]byte
				copy(a4[:], addr[:4])
				p = netip.PrefixFrom(netip.AddrFrom4(a4), depth)
			} else {
				p = netip.PrefixFrom(netip.AddrFrom16(addr), depth)
			}
			out = append(out, Entry{Prefix: p, ASN: n.asn})
		}
		walk(n.children[0], addr, depth+1, is4)
		one := addr
		one[depth/8] |= 1 << (7 - depth%8)
		walk(n.children[1], one, depth+1, is4)
	}
	walk(t.v4, [16]byte{}, 0, true)
	walk(t.v6, [16]byte{}, 0, false)
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.String() < out[j].Prefix.String() })
	return out
}

// Cache memoizes Lookup results by a dense uint32 identifier (an
// ident.AddrID in practice — ipmap stays ident-agnostic so the dependency
// only points one way). The first lookup for an id walks the radix trie;
// every later lookup is one slice index. Aggregation resolves the same few
// alarm addresses every bin, so the trie walk amortizes to zero.
//
// The cache assumes id→addr is stable (interned) and the table is no
// longer mutated — the same contract concurrent Table lookups already
// require. Cache itself is not safe for concurrent use; the single-writer
// aggregation stage owns it.
type Cache struct {
	table *Table
	memo  []memoEntry
}

type memoEntry struct {
	asn   ASN
	state uint8 // 0 = unresolved, 1 = hit, 2 = miss
}

// NewCache returns an empty memoizing cache over the table.
func NewCache(t *Table) *Cache { return &Cache{table: t} }

// Lookup resolves addr's ASN, memoized under id. The addr is consulted
// only on the first call for a given id.
func (c *Cache) Lookup(id uint32, addr netip.Addr) (ASN, bool) {
	if int(id) < len(c.memo) {
		switch e := c.memo[id]; e.state {
		case 1:
			return e.asn, true
		case 2:
			return 0, false
		}
	} else {
		n := int(id) + 1
		if n < 2*len(c.memo) {
			n = 2 * len(c.memo)
		}
		grown := make([]memoEntry, n)
		copy(grown, c.memo)
		c.memo = grown
	}
	asn, ok := c.table.Lookup(addr)
	e := memoEntry{asn: asn, state: 2}
	if ok {
		e.state = 1
	}
	c.memo[id] = e
	return asn, ok
}

// bit returns the i-th most significant bit of the address (0-indexed within
// the address family: 0..31 for IPv4, 0..127 for IPv6).
func bit(addr netip.Addr, i int) int {
	if addr.Is4() {
		a := addr.As4()
		return int(a[i/8]>>(7-i%8)) & 1
	}
	a := addr.As16()
	return int(a[i/8]>>(7-i%8)) & 1
}
