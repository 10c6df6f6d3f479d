package index

import (
	"fmt"
	"math/bits"
)

// Insert adds a single (already z-normalized) series to the index and
// returns its id. The series is appended to the underlying data matrix, its
// word computed with enc, and the tree updated along the insertion path —
// splitting the target leaf if it overflows, exactly as during batch
// construction (MESSI's incremental-insert behaviour).
//
// Insert is NOT safe to run concurrently with Search or other Inserts;
// callers own that synchronization (a batch-load-then-query workload, the
// paper's setting, needs none).
func (t *Tree) Insert(series []float64, enc Encoder) (int32, error) {
	if len(series) != t.data.Stride {
		return 0, fmt.Errorf("index: series length %d, want %d", len(series), t.data.Stride)
	}
	word := make([]byte, t.l)
	if _, err := enc.Word(series, word); err != nil {
		return 0, err
	}
	id := int32(t.data.Append(series))

	key := t.rootKey(word)
	root, ok := t.root[key]
	if !ok {
		root = t.newRootChild(key, nil)
		t.root[key] = root
		t.insertRootKey(key)
	}
	// Descend to the leaf, updating subtree counts on the way.
	n := root
	for !n.isLeaf() {
		n.count++
		j := n.split
		childBits := int(n.children[0].cards[j])
		shift := uint(SymbolBits - childBits)
		b := (word[j] >> shift) & 1
		n = n.children[b]
	}
	n.ids = append(n.ids, id)
	n.words = append(n.words, word...) // the block row of ids[len(ids)-1]
	n.count++
	if len(n.ids) > t.opts.LeafCapacity && !n.noSplit {
		t.splitToCapacity(n)
	}
	return id, nil
}

// insertRootKey keeps rootKeys sorted as new keys appear.
func (t *Tree) insertRootKey(key uint64) {
	lo, hi := 0, len(t.rootKeys)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.rootKeys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	t.rootKeys = append(t.rootKeys, 0)
	copy(t.rootKeys[lo+1:], t.rootKeys[lo:])
	t.rootKeys[lo] = key
}

// CheckInvariants walks the whole tree and verifies its structural
// invariants; it returns the first violation found. Used by tests and
// available to callers who mutate the index with Insert.
//
// Invariants checked:
//   - every series id appears in exactly one leaf;
//   - each leaf's refinement block holds one word row per member;
//   - each block row matches every prefix on its leaf's path (the symbol
//     prefix of the node at the node's cardinality);
//   - inner node counts equal the sum of their children's;
//   - child prefixes extend their parent's at the split position;
//   - no splittable leaf exceeds the leaf capacity.
func (t *Tree) CheckInvariants() error {
	seen := make([]bool, t.data.Len())
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.isLeaf() {
			if len(n.ids) != int(n.count) {
				return fmt.Errorf("leaf count %d != len(ids) %d", n.count, len(n.ids))
			}
			if len(n.ids) > t.opts.LeafCapacity && !n.noSplit {
				return fmt.Errorf("splittable leaf of size %d exceeds capacity %d", len(n.ids), t.opts.LeafCapacity)
			}
			if len(n.words) != len(n.ids)*t.l {
				return fmt.Errorf("leaf block has %d bytes, want %d", len(n.words), len(n.ids)*t.l)
			}
			for i, id := range n.ids {
				if id < 0 || int(id) >= t.data.Len() {
					return fmt.Errorf("leaf id %d out of range", id)
				}
				if seen[id] {
					return fmt.Errorf("series %d appears in more than one leaf", id)
				}
				seen[id] = true
				word := n.words[i*t.l : (i+1)*t.l]
				for j := 0; j < t.l; j++ {
					bits := int(n.cards[j])
					if bits == 0 {
						continue
					}
					if word[j]>>(SymbolBits-bits) != n.word[j] {
						return fmt.Errorf("series %d word[%d]=%d violates node prefix %d@%d bits",
							id, j, word[j], n.word[j], bits)
					}
				}
			}
			return nil
		}
		if n.children[0] == nil || n.children[1] == nil {
			return fmt.Errorf("inner node with missing child")
		}
		if n.count != n.children[0].count+n.children[1].count {
			return fmt.Errorf("inner count %d != children %d+%d",
				n.count, n.children[0].count, n.children[1].count)
		}
		j := n.split
		for b := 0; b < 2; b++ {
			c := n.children[b]
			if int(c.cards[j]) != int(n.cards[j])+1 {
				return fmt.Errorf("child cardinality %d != parent %d + 1 at split %d", c.cards[j], n.cards[j], j)
			}
			if c.word[j] != n.word[j]<<1|byte(b) {
				return fmt.Errorf("child prefix %d does not extend parent %d with bit %d", c.word[j], n.word[j], b)
			}
		}
		if err := walk(n.children[0]); err != nil {
			return err
		}
		return walk(n.children[1])
	}
	for _, k := range t.rootKeys {
		if err := walk(t.root[k]); err != nil {
			return err
		}
	}
	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("series %d missing from every leaf", id)
		}
	}
	if len(t.dead) > (t.data.Len()+63)/64 {
		return fmt.Errorf("tombstone bitmap has %d words for %d series", len(t.dead), t.data.Len())
	}
	pop := 0
	for w, word := range t.dead {
		pop += bits.OnesCount64(word)
		if word != 0 {
			if hi := w*64 + 63 - bits.LeadingZeros64(word); hi >= t.data.Len() {
				return fmt.Errorf("tombstone bit %d out of range [0,%d)", hi, t.data.Len())
			}
		}
	}
	if pop != t.deadCount {
		return fmt.Errorf("tombstone count %d != bitmap population %d", t.deadCount, pop)
	}
	return nil
}
