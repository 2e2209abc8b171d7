package doc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
	"unicode/utf8"

	"repro/internal/op"
)

// maxLeaf bounds leaf size in bytes: adjacent leaves are merged on concat
// while their combined size stays under it, keeping the tree shallow for big
// documents without wasting memory on tiny ones. 2048 bytes is what a leaf of
// 512 runes took when leaves were []rune, so the in-place keystroke path
// moves no more memory than it did.
const maxLeaf = 2048

// ropeNode is a node of an immutable-ish rope. Leaves hold valid UTF-8;
// every node caches its subtree's rune and byte counts and its height for
// balancing. Positions are rune offsets everywhere; the byte counts let a
// slice find its byte range and allocate once. 64 bytes on 64-bit platforms,
// one size class (TestRopeNodeSize).
type ropeNode struct {
	left, right *ropeNode // both nil for a leaf
	length      int       // runes in this subtree
	size        int       // bytes in this subtree
	height      int       // 1 for leaves
	text        []byte    // leaf payload, valid UTF-8 (nil for internal nodes)
}

// leaf wraps b, valid UTF-8 of runes runes that the leaf now owns.
func leaf(b []byte, runes int) *ropeNode {
	return &ropeNode{length: runes, size: len(b), height: 1, text: b}
}

func (n *ropeNode) isLeaf() bool { return n.left == nil }

// offset returns the byte offset of rune i (0 ≤ i ≤ length) in a leaf. An
// all-ASCII leaf indexes directly; otherwise rune starts are counted a
// machine word at a time.
func (n *ropeNode) offset(i int) int {
	if n.size == n.length {
		return i
	}
	return runeOffset(n.text, i, n.length)
}

// continuations counts the UTF-8 continuation bytes (10xxxxxx) among the
// eight bytes of b at p: bit 7 set and bit 6 clear, tested for all eight at
// once.
func continuations(b []byte, p int) int {
	w := binary.LittleEndian.Uint64(b[p:])
	return bits.OnesCount64(w &^ (w << 1) & 0x8080808080808080)
}

// runeOffset returns the byte offset at which rune i starts in b, valid
// UTF-8 of runes runes (len(b) when i == runes). It counts rune starts from
// whichever end of b is nearer.
func runeOffset(b []byte, i, runes int) int {
	if i > runes/2 {
		return runeOffsetFromEnd(b, runes-i)
	}
	p := 0
	for ; p+8 <= len(b); p += 8 {
		starts := 8 - continuations(b, p)
		if starts > i {
			break
		}
		i -= starts
	}
	for ; p < len(b); p++ {
		if utf8.RuneStart(b[p]) {
			if i == 0 {
				return p
			}
			i--
		}
	}
	return p
}

// runeOffsetFromEnd returns the byte offset in valid UTF-8 b at which the
// k-th rune from the end starts (len(b) when k is 0).
func runeOffsetFromEnd(b []byte, k int) int {
	p := len(b)
	for ; k > 0 && p >= 8; p -= 8 {
		starts := 8 - continuations(b, p-8)
		if starts >= k {
			break
		}
		k -= starts
	}
	for k > 0 {
		p--
		if utf8.RuneStart(b[p]) {
			k--
		}
	}
	return p
}

// runeCount returns the number of runes in valid UTF-8 b: its bytes less its
// continuation bytes.
func runeCount(b []byte) int {
	n, p := len(b), 0
	for ; p+8 <= len(b); p += 8 {
		n -= continuations(b, p)
	}
	for ; p < len(b); p++ {
		if !utf8.RuneStart(b[p]) {
			n--
		}
	}
	return n
}

// concat joins two subtrees, merging small leaves and rebalancing when the
// height invariant degrades.
func concat(a, b *ropeNode) *ropeNode {
	switch {
	case a == nil || a.length == 0:
		return b
	case b == nil || b.length == 0:
		return a
	}
	if a.isLeaf() && b.isLeaf() && a.size+b.size <= maxLeaf {
		merged := make([]byte, 0, a.size+b.size)
		merged = append(merged, a.text...)
		merged = append(merged, b.text...)
		return leaf(merged, a.length+b.length)
	}
	// Descend toward the nearer edge when one side is a small leaf, so
	// repeated edge insertions (typing at the start or end of a large
	// document) coalesce into the edge leaf instead of stacking one level
	// of height per edit and forcing constant O(n) rebuilds.
	if a.isLeaf() && !b.isLeaf() && a.size <= maxLeaf/2 {
		return node(concat(a, b.left), b.right)
	}
	if b.isLeaf() && !a.isLeaf() && b.size <= maxLeaf/2 {
		return node(a.left, concat(a.right, b))
	}
	return node(a, b)
}

// join builds an internal node over two non-empty subtrees.
func join(a, b *ropeNode) *ropeNode {
	return &ropeNode{
		left:   a,
		right:  b,
		length: a.length + b.length,
		size:   a.size + b.size,
		height: max(a.height, b.height) + 1,
	}
}

// node joins two non-empty subtrees, rebuilding when the height invariant
// degrades.
func node(a, b *ropeNode) *ropeNode {
	n := join(a, b)
	if n.unbalanced() {
		return rebuild(n)
	}
	return n
}

// unbalanced reports whether the subtree is pathologically deep for its size.
func (n *ropeNode) unbalanced() bool { return n.height > heightLimit(n.length) }

// heightLimit is the greatest height node accepts for a subtree of length
// runes. A perfectly balanced tree over k leaves has height ~log2(k)+1; allow
// generous slack before paying for a rebuild.
func heightLimit(length int) int {
	limit := 2
	for size := 1; size < length; size <<= 1 {
		limit++
	}
	return limit + 8
}

// rebuild flattens the subtree into leaves and reassembles a balanced tree.
func rebuild(n *ropeNode) *ropeNode {
	var leaves []*ropeNode
	n.collectLeaves(&leaves)
	return buildBalanced(leaves)
}

func (n *ropeNode) collectLeaves(out *[]*ropeNode) {
	if n == nil {
		return
	}
	if n.isLeaf() {
		if n.length > 0 {
			*out = append(*out, n)
		}
		return
	}
	n.left.collectLeaves(out)
	n.right.collectLeaves(out)
}

func buildBalanced(leaves []*ropeNode) *ropeNode {
	switch len(leaves) {
	case 0:
		return leaf(nil, 0)
	case 1:
		return leaves[0]
	}
	mid := len(leaves) / 2
	return join(buildBalanced(leaves[:mid]), buildBalanced(leaves[mid:]))
}

// build returns a balanced tree over valid UTF-8 s, cut into leaves of at
// most maxLeaf bytes on rune boundaries.
func build(s string) *ropeNode {
	if len(s) <= maxLeaf {
		b := []byte(s)
		return leaf(b, runeCount(b))
	}
	leaves := make([]*ropeNode, 0, (len(s)+maxLeaf-1)/maxLeaf)
	for len(s) > 0 {
		cut := min(maxLeaf, len(s))
		for cut < len(s) && !utf8.RuneStart(s[cut]) {
			cut--
		}
		b := []byte(s[:cut])
		leaves = append(leaves, leaf(b, runeCount(b)))
		s = s[cut:]
	}
	return buildBalanced(leaves)
}

// tryInsert inserts s (valid UTF-8 of runes runes) in place when the position
// lands inside (or at the edge of) a leaf with room, updating subtree counts
// on the way down, and reports whether it did. The structure, heights, and
// balance of the tree are unchanged, so no rebalancing is needed. This is
// the hot path for interactive editing: a keystroke-sized insert touches one
// leaf and allocates at most one amortized slice growth instead of O(depth)
// fresh nodes via split/concat.
//
// In-place mutation is safe because leaf byte slices are never shared
// between trees: every constructor (build, split, concat-merge) copies.
func (n *ropeNode) tryInsert(pos int, s string, runes int) bool {
	if n.isLeaf() {
		if n.size+len(s) > maxLeaf {
			return false
		}
		off := n.offset(pos)
		n.text = append(n.text, s...) // grow, amortized
		copy(n.text[off+len(s):], n.text[off:n.size])
		copy(n.text[off:], s)
		n.size = len(n.text)
		n.length += runes
		return true
	}
	var ok bool
	if pos <= n.left.length {
		ok = n.left.tryInsert(pos, s, runes)
		if !ok && pos == n.left.length {
			// Boundary position: the right subtree's edge leaf may have room.
			ok = n.right.tryInsert(0, s, runes)
		}
	} else {
		ok = n.right.tryInsert(pos-n.left.length, s, runes)
	}
	if ok {
		n.length += runes
		n.size += len(s)
	}
	return ok
}

// tryDelete removes runes [pos, pos+cnt) in place when the range falls
// entirely within one leaf, updating subtree counts, and reports how many
// bytes it removed (-1 when it did not). A leaf emptied by the deletion stays
// in the tree (harmless: empty leaves are skipped by concat and contribute
// nothing to slices).
func (n *ropeNode) tryDelete(pos, cnt int) int {
	if n.isLeaf() {
		lo := n.offset(pos)
		hi := lo + cnt
		if n.size != n.length {
			hi = lo + runeOffset(n.text[lo:], cnt, n.length-pos)
		}
		n.text = append(n.text[:lo], n.text[hi:]...)
		n.size = len(n.text)
		n.length -= cnt
		return hi - lo
	}
	var removed int
	switch {
	case pos >= n.left.length:
		removed = n.right.tryDelete(pos-n.left.length, cnt)
	case pos+cnt <= n.left.length:
		removed = n.left.tryDelete(pos, cnt)
	default:
		return -1 // spans the subtree boundary; caller falls back to split
	}
	if removed >= 0 {
		n.length -= cnt
		n.size -= removed
	}
	return removed
}

// split divides the subtree into runes [0,i) and [i,length).
func split(n *ropeNode, i int) (*ropeNode, *ropeNode) {
	if n == nil {
		return nil, nil
	}
	if n.isLeaf() {
		switch {
		case i <= 0:
			return nil, n
		case i >= n.length:
			return n, nil
		}
		// Copy both halves so the original leaf stays immutable.
		off := n.offset(i)
		l := append([]byte(nil), n.text[:off]...)
		r := append([]byte(nil), n.text[off:]...)
		return leaf(l, i), leaf(r, n.length-i)
	}
	if i < n.left.length {
		ll, lr := split(n.left, i)
		return ll, concat(lr, n.right)
	}
	rl, rr := split(n.right, i-n.left.length)
	return concat(n.left, rl), rr
}

// byteOffset returns the byte offset of rune i (0 ≤ i ≤ length) in the
// subtree.
func (n *ropeNode) byteOffset(i int) int {
	off := 0
	for !n.isLeaf() {
		if i < n.left.length {
			n = n.left
		} else {
			i -= n.left.length
			off += n.left.size
			n = n.right
		}
	}
	return off + n.offset(i)
}

// appendBytes writes the subtree's bytes [i, j) to sb.
func (n *ropeNode) appendBytes(sb *strings.Builder, i, j int) {
	if i >= j {
		return
	}
	if n.isLeaf() {
		sb.Write(n.text[i:j])
		return
	}
	ls := n.left.size
	if i < ls {
		n.left.appendBytes(sb, i, min(j, ls))
	}
	if j > ls {
		n.right.appendBytes(sb, max(i-ls, 0), j-ls)
	}
}

// Rope is an editable text document addressed by rune offsets, backed by a
// balanced rope of UTF-8 leaves: O(log n) insert/delete and O(j-i + log n)
// slicing, one byte per ASCII character. Suitable for the large shared
// documents a long-running collaborative session accumulates.
type Rope struct {
	root *ropeNode
}

// NewRope returns a Rope initialized with op.ValidText(s): bytes that are not
// valid UTF-8 become U+FFFD, one per byte, as []rune(s) maps them.
func NewRope(s string) *Rope {
	return &Rope{root: build(op.ValidText(s))}
}

// Len returns the document length in runes.
func (r *Rope) Len() int {
	if r.root == nil {
		return 0
	}
	return r.root.length
}

// Insert places op.ValidText(s) so its first rune lands at rune index pos.
func (r *Rope) Insert(pos int, s string) error {
	if pos < 0 || pos > r.Len() {
		return fmt.Errorf("rope insert at %d of %d: %w", pos, r.Len(), ErrRange)
	}
	if s == "" {
		return nil
	}
	s = op.ValidText(s)
	if r.root != nil && len(s) <= maxLeaf/2 && r.root.tryInsert(pos, s, utf8.RuneCountInString(s)) {
		return nil
	}
	l, rt := split(r.root, pos)
	r.root = concat(concat(l, build(s)), rt)
	return nil
}

// Delete removes n runes starting at rune index pos.
func (r *Rope) Delete(pos, n int) error {
	if pos < 0 || n < 0 || pos+n > r.Len() {
		return fmt.Errorf("rope delete [%d,%d) of %d: %w", pos, pos+n, r.Len(), ErrRange)
	}
	if n == 0 {
		return nil
	}
	if r.root.tryDelete(pos, n) >= 0 {
		return nil
	}
	l, rest := split(r.root, pos)
	_, rt := split(rest, n)
	r.root = concat(l, rt)
	if r.root == nil {
		r.root = leaf(nil, 0)
	}
	return nil
}

// Slice returns the text in [i, j) as a string.
func (r *Rope) Slice(i, j int) (string, error) {
	if i < 0 || j < i || j > r.Len() {
		return "", fmt.Errorf("rope slice [%d,%d) of %d: %w", i, j, r.Len(), ErrRange)
	}
	if i == j {
		return "", nil
	}
	lo, hi := r.root.byteOffset(i), r.root.byteOffset(j)
	var sb strings.Builder
	sb.Grow(hi - lo)
	r.root.appendBytes(&sb, lo, hi)
	return sb.String(), nil
}

// String returns the whole document.
func (r *Rope) String() string {
	if r.Len() == 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(r.root.size)
	r.root.appendBytes(&sb, 0, r.root.size)
	return sb.String()
}

// Depth reports the current tree height; exported for balance tests.
func (r *Rope) Depth() int {
	if r.root == nil {
		return 0
	}
	return r.root.height
}
