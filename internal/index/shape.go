package index

import (
	"fmt"
	"time"

	"repro/internal/distance"
)

// TreeShape is the serializable form of a finalized tree: the node topology
// and split positions in preorder, leaf membership in tree order, and the
// concatenated leaf refinement blocks — the tree's only copy of its words.
// It reconstructs the exact tree — same nodes, same leaf id order — by
// direct decode, with no re-bucketing and no re-splitting.
//
// Everything else a node carries is derived: prefixes (word/cards) follow
// from the root key and the split positions on the path, depths from the
// topology, and subtree counts from the leaf sizes.
type TreeShape struct {
	// RootBits is the tree's root fan-out width. It is part of the shape,
	// not re-derived from the collection size at decode time: Insert grows
	// the collection without re-fanning the root, so a tree saved after
	// inserts legitimately carries the fan-out of its original build.
	RootBits int
	// RootKeys lists the non-empty root children in ascending key order,
	// exactly as the tree fans out (RootBits bits per key).
	RootKeys []uint64
	// Splits is the preorder node stream over the subtrees in RootKeys
	// order: value >= 0 is an inner node splitting at that word position
	// (its two children follow, bit 0 first); -1 is a leaf.
	Splits []int16
	// LeafCounts and LeafNoSplit describe each leaf in preorder: member
	// count and the cannot-split-further marker.
	LeafCounts  []int32
	LeafNoSplit []bool
	// IDs is the concatenated leaf membership (tree-local series ids) in
	// preorder — the exact in-leaf order of the saved tree.
	IDs []int32
	// LeafBlocks is the preorder concatenation of every leaf's contiguous
	// refinement block (len(IDs) x word-length bytes).
	LeafBlocks []byte
}

// Shape exports the finalized tree's shape for serialization. The returned
// slices are fresh copies except IDs rows and blocks, which are copied too;
// the shape is safe to retain after further Inserts into the tree.
func (t *Tree) Shape() TreeShape {
	sh := TreeShape{RootBits: t.rootBits, RootKeys: append([]uint64(nil), t.rootKeys...)}
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			sh.Splits = append(sh.Splits, -1)
			sh.LeafCounts = append(sh.LeafCounts, int32(len(n.ids)))
			sh.LeafNoSplit = append(sh.LeafNoSplit, n.noSplit)
			sh.IDs = append(sh.IDs, n.ids...)
			sh.LeafBlocks = append(sh.LeafBlocks, n.words...)
			return
		}
		sh.Splits = append(sh.Splits, int16(n.split))
		walk(n.children[0])
		walk(n.children[1])
	}
	for _, k := range t.rootKeys {
		walk(t.root[k])
	}
	return sh
}

// shapeCursor tracks consumption of the flat shape streams during decode.
type shapeCursor struct {
	node, leaf, id, blk int
}

// FromShape reconstructs a tree by direct decode of a previously exported
// shape — the container load path: no summarization transform, no
// re-bucketing, no re-splitting (SplitCount stays 0). The shape's IDs and
// LeafBlocks slices are retained by the tree as its leaves' members and
// words.
//
// The shape is fully validated: the preorder streams must be exactly
// consistent (every entry consumed, every series in exactly one leaf), split
// positions and cardinalities in range, and the reconstructed tree must pass
// CheckInvariants — which also verifies every block row against the
// prefixes on its leaf's path — so a corrupted container is rejected with an
// error instead of answering queries wrongly. A symbol's bits below its
// leaf's prefix are not constrained by the tree; a container's checksum
// covers them.
func FromShape(data *distance.Matrix, sum Summarization, opts Options, shape TreeShape) (*Tree, error) {
	t, err := newTree(data, sum, opts)
	if err != nil {
		return nil, err
	}
	if shape.RootBits < 1 || shape.RootBits > t.l {
		return nil, fmt.Errorf("index: shape root fan-out %d out of range [1, %d]", shape.RootBits, t.l)
	}
	// The saved fan-out, not the rootFanoutBits(data.Len(), ...) default
	// newTree derived: inserts after the original build grow the collection
	// without re-fanning the root, and the decoded tree must keep bucketing
	// new inserts the way the saved one did.
	t.rootBits = shape.RootBits
	start := time.Now()
	if err := t.decodeShape(shape); err != nil {
		return nil, err
	}
	if err := t.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("index: decoded tree violates invariants: %w", err)
	}
	t.TreeSeconds = time.Since(start).Seconds()
	return t, nil
}

// decodeShape rebuilds the node structure from the flat preorder streams.
func (t *Tree) decodeShape(shape TreeShape) error {
	if len(shape.LeafCounts) != len(shape.LeafNoSplit) {
		return fmt.Errorf("index: shape has %d leaf counts but %d no-split flags",
			len(shape.LeafCounts), len(shape.LeafNoSplit))
	}
	if len(shape.IDs) != t.data.Len() {
		return fmt.Errorf("index: shape holds %d ids for %d series", len(shape.IDs), t.data.Len())
	}
	if len(shape.LeafBlocks) != len(shape.IDs)*t.l {
		return fmt.Errorf("index: leaf blocks length %d, want %d", len(shape.LeafBlocks), len(shape.IDs)*t.l)
	}
	// Depth is bounded by the total prefix bits a word can absorb; rejecting
	// deeper shapes both catches corruption and bounds the decode recursion.
	maxDepth := 1 + t.l*SymbolBits
	var cur shapeCursor
	var build func(n *node) error
	build = func(n *node) error {
		if cur.node >= len(shape.Splits) {
			return fmt.Errorf("index: shape node stream truncated")
		}
		sp := int(shape.Splits[cur.node])
		cur.node++
		if sp < 0 { // leaf
			if cur.leaf >= len(shape.LeafCounts) {
				return fmt.Errorf("index: shape leaf stream truncated")
			}
			cnt := int(shape.LeafCounts[cur.leaf])
			if cnt < 0 || cnt > len(shape.IDs)-cur.id {
				return fmt.Errorf("index: leaf count %d exceeds remaining ids", cnt)
			}
			n.split = -1
			n.ids = shape.IDs[cur.id : cur.id+cnt : cur.id+cnt]
			n.count = int32(cnt)
			n.noSplit = shape.LeafNoSplit[cur.leaf]
			// Cap the block slice at its own end so a post-load Insert's
			// append reallocates instead of clobbering the next leaf's
			// block in the shared buffer. Ids are range-checked by
			// CheckInvariants, which runs before anything indexes by them.
			lo, hi := cur.blk, cur.blk+cnt*t.l
			n.words = shape.LeafBlocks[lo:hi:hi]
			cur.blk = hi
			cur.leaf++
			cur.id += cnt
			return nil
		}
		if sp >= t.l {
			return fmt.Errorf("index: split position %d out of range (word length %d)", sp, t.l)
		}
		if int(n.cards[sp]) >= SymbolBits {
			return fmt.Errorf("index: split at position %d exceeds %d-bit cardinality", sp, SymbolBits)
		}
		if n.depth >= maxDepth {
			return fmt.Errorf("index: shape deeper than %d levels", maxDepth)
		}
		n.split = sp
		for b := 0; b < 2; b++ {
			word := append([]byte(nil), n.word...)
			cards := append([]uint8(nil), n.cards...)
			word[sp] = word[sp]<<1 | byte(b)
			cards[sp]++
			c := &node{word: word, cards: cards, depth: n.depth + 1, split: -1}
			n.children[b] = c
			if err := build(c); err != nil {
				return err
			}
		}
		n.count = n.children[0].count + n.children[1].count
		return nil
	}

	t.rootKeys = make([]uint64, 0, len(shape.RootKeys))
	var prev uint64
	for i, k := range shape.RootKeys {
		if i > 0 && k <= prev {
			return fmt.Errorf("index: root keys not strictly increasing at %d", i)
		}
		prev = k
		if k>>uint(t.rootBits) != 0 {
			return fmt.Errorf("index: root key %#x exceeds %d fan-out bits", k, t.rootBits)
		}
		root := t.newRootChild(k, nil)
		if err := build(root); err != nil {
			return err
		}
		t.root[k] = root
		t.rootKeys = append(t.rootKeys, k)
	}
	if cur.node != len(shape.Splits) || cur.leaf != len(shape.LeafCounts) ||
		cur.id != len(shape.IDs) || cur.blk != len(shape.LeafBlocks) {
		return fmt.Errorf("index: shape streams not fully consumed (%d/%d nodes, %d/%d leaves, %d/%d ids, %d/%d block bytes)",
			cur.node, len(shape.Splits), cur.leaf, len(shape.LeafCounts),
			cur.id, len(shape.IDs), cur.blk, len(shape.LeafBlocks))
	}
	return nil
}
