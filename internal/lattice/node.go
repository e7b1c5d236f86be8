package lattice

import "math/bits"

// Node is one attribute set in the lattice, together with the validity state
// that drives pruning:
//
//   - ConstValid: attributes D ∈ Set such that the approximate OFD
//     (Set\{D}): [] ↦ D is valid (error ≤ ε). It is complete — propagation by
//     monotonicity plus on-node validation covers every D — which is what
//     lets superset nodes prune both non-minimal OFDs and constancy-trivial
//     OCs exactly.
//   - OCValid: unordered pairs {A,B} ⊆ Set such that the approximate OC
//     Y: A ∼ B is valid for some context Y ⊆ Set\{A,B}.
//
// Nodes hold no partitions: Π_Set comes from the traversal's Memo, built only
// when a candidate needs it, so nodes whose subtree never validates anything
// never pay the partition-product cost. This is the mechanism behind the
// paper's Exp-5 observation that approximate discovery can be faster than
// exact discovery: AOCs/AOFDs are found at lower levels, validity state
// saturates sooner, and the engine stops early.
type Node struct {
	// Set is the attribute set of this node.
	Set AttrSet
	// Level is |Set|.
	Level int
	// ConstValid marks attrs with a valid OFD in context Set\{attr}.
	ConstValid AttrSet
	// OCValid marks pairs with a valid OC in some context ⊆ Set\pair.
	OCValid *PairSet
	// OCValidDesc is the bidirectional analogue: pairs {A,B} with a valid
	// mixed-direction OC (A ascending, B descending) in some sub-context.
	// Allocated only when bidirectional discovery is enabled.
	OCValidDesc *PairSet
}

// Level0 builds the level-0 lattice: the single empty-set node.
func Level0(numAttrs int) *Level {
	n := &Node{
		Set:     0,
		Level:   0,
		OCValid: NewPairSet(numAttrs),
	}
	return &Level{Number: 0, Nodes: []*Node{n}, bySet: map[AttrSet]*Node{0: n}}
}

// Level is one stratum of the lattice: all nodes whose sets share a
// cardinality.
type Level struct {
	// Number is the cardinality of the node sets in this level.
	Number int
	// Nodes in deterministic (ascending bitmask) order.
	Nodes []*Node
	bySet map[AttrSet]*Node
}

// Lookup returns the node for the given set, or nil.
func (l *Level) Lookup(s AttrSet) *Node {
	if l == nil {
		return nil
	}
	return l.bySet[s]
}

// Level1 builds the level-1 lattice: one singleton node per attribute.
func Level1(numAttrs int) *Level {
	lvl := &Level{Number: 1, bySet: make(map[AttrSet]*Node, numAttrs)}
	for a := 0; a < numAttrs; a++ {
		n := &Node{
			Set:     NewAttrSet(a),
			Level:   1,
			OCValid: NewPairSet(numAttrs),
		}
		lvl.Nodes = append(lvl.Nodes, n)
		lvl.bySet[n.Set] = n
	}
	return lvl
}

// RemainingNodes returns the number of lattice nodes in levels
// (fromLevel, maxLevel] — the sum of binomial coefficients C(numAttrs, k) for
// fromLevel < k ≤ maxLevel. Traversal snapshots use it as an upper bound on
// the nodes a running discovery may still visit (early termination can skip
// them all). The running product never overflows for numAttrs ≤ 64: the
// largest term C(64, 32) ≈ 1.8e18 fits an int64, and the sum saturates at
// MaxInt64 rather than wrapping.
func RemainingNodes(numAttrs, fromLevel, maxLevel int) int64 {
	if maxLevel > numAttrs {
		maxLevel = numAttrs
	}
	var total int64
	for k := fromLevel + 1; k <= maxLevel; k++ {
		c := binomial(numAttrs, k)
		if total > (1<<63-1)-c {
			return 1<<63 - 1
		}
		total += c
	}
	return total
}

// binomial computes C(n, k) with the multiplicative formula for n ≤ 64. Each
// prefix value is itself a binomial C(n-k+i, i) and so fits int64 (the
// largest, C(64, 32) ≈ 1.8e18, does), but the undivided product c·(n-k+i)
// does not — C(63, 31)·64 ≈ 5.9e19 — so the multiply-then-divide step runs
// through a 128-bit intermediate.
func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := uint64(1)
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(c, uint64(n-k+i))
		// Exact division: hi < i because the quotient C(n-k+i, i) fits 64
		// bits, so Div64 cannot panic.
		c, _ = bits.Div64(hi, lo, uint64(i))
	}
	return int64(c)
}

// NextLevel generates level ℓ+1 from level ℓ: every set S with |S| = ℓ+1 is
// produced exactly once by extending the node of S \ {max attr} with an
// attribute larger than its maximum. Partitions are not computed here; see
// Memo.
func NextLevel(cur *Level, numAttrs int) *Level {
	next := &Level{Number: cur.Number + 1, bySet: make(map[AttrSet]*Node)}
	for _, n := range cur.Nodes {
		for c := n.Set.Max() + 1; c < numAttrs; c++ {
			child := &Node{
				Set:     n.Set.Add(c),
				Level:   next.Number,
				OCValid: NewPairSet(numAttrs),
			}
			next.Nodes = append(next.Nodes, child)
			next.bySet[child.Set] = child
		}
	}
	return next
}
