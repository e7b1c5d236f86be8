// Package core implements the paper's discovery framework (Fig. 1 / Sec. 3.1):
// level-wise traversal of the set-based attribute lattice, generation of
// canonical AOC and AOFD candidates, axiom-based pruning, validation through
// a pluggable validator (exact, optimal LNDS-based, or the legacy iterative
// greedy), and interestingness scoring of the verified dependencies.
//
// The engine discovers the complete set of minimal dependencies under the
// semantics pinned in DESIGN.md:
//
//   - AOFD X: [] ↦ A is reported iff e ≤ ε and no Y ⊂ X has a valid AOFD
//     Y: [] ↦ A;
//   - AOC X: A ∼ B is reported iff e ≤ ε, no Y ⊂ X has a valid AOC
//     Y: A ∼ B, and no Y ⊆ X has a valid AOFD Y: [] ↦ A or Y: [] ↦ B
//     (a constant side trivializes order compatibility).
//
// With the iterative validator the engine reproduces the legacy system's
// behaviour instead: overestimated approximation factors can both miss AOCs
// and surface non-minimal ones (Exp-4 of the paper).
package core

import (
	"errors"
	"fmt"
	"time"
)

// ValidatorKind selects the OC/OFD validation algorithm used by Discover.
type ValidatorKind int

const (
	// ValidatorExact discovers exact ODs (ε is treated as 0) using the
	// linear exact checks; this is the "OD" configuration of the paper's
	// experiments (FASTOD).
	ValidatorExact ValidatorKind = iota
	// ValidatorOptimal discovers AODs with the paper's LNDS-based optimal
	// validator (Algorithm 2); the "AOD (optimal)" configuration.
	ValidatorOptimal
	// ValidatorIterative discovers AODs with the legacy greedy validator
	// (Algorithm 1); the "AOD (iterative)" configuration.
	ValidatorIterative
)

// String names the validator kind as in the paper's figures.
func (k ValidatorKind) String() string {
	switch k {
	case ValidatorExact:
		return "OD"
	case ValidatorOptimal:
		return "AOD (optimal)"
	case ValidatorIterative:
		return "AOD (iterative)"
	default:
		return fmt.Sprintf("ValidatorKind(%d)", int(k))
	}
}

// Config controls a discovery run.
type Config struct {
	// Threshold is the approximation threshold ε ∈ [0,1]. Ignored (treated
	// as 0) when Validator is ValidatorExact.
	Threshold float64
	// Validator selects the validation algorithm.
	Validator ValidatorKind
	// MaxLevel bounds the lattice level (attribute-set size) explored;
	// 0 means no bound (up to the number of attributes).
	MaxLevel int
	// IncludeOFDs requests that minimal approximate OFDs be reported in
	// addition to AOCs. Candidate OFD validation always runs (it drives
	// pruning); this flag only controls reporting.
	IncludeOFDs bool
	// CollectRemovalSets re-validates each verified dependency to attach the
	// removal-set row ids (useful for error repair / outlier detection).
	CollectRemovalSets bool
	// TimeLimit aborts discovery after the given wall-clock duration,
	// returning partial results with Stats.TimedOut set. 0 disables.
	TimeLimit time.Duration
	// SampleStride > 1 enables hybrid-sampling pre-filtering of AOC
	// candidates (the paper's future-work direction after [6]): a candidate
	// is first estimated on every SampleStride-th tuple of each class and
	// rejected without full validation when the estimate exceeds
	// Threshold + SampleSlack. Accepted candidates are always re-validated
	// in full, so every reported dependency remains truly valid and minimal;
	// the mode trades a small completeness risk (a candidate whose sample
	// wildly overestimates its error is lost) for validation time. Ignored
	// by the exact validator.
	SampleStride int
	// SampleSlack is the rejection margin for hybrid sampling; 0 means
	// DefaultSampleSlack.
	SampleSlack float64
	// DisablePruning is an ablation switch: every candidate is validated
	// even when minimality/constancy pruning could skip it (reported
	// dependencies are still filtered to the minimal set). Used to measure
	// the pruning benefit the paper's Exp-5 relies on.
	DisablePruning bool
	// UseSortedScan switches exact-OC validation to the sorted-partition
	// linear scan of the set-based framework [9] (per-attribute global
	// orders precomputed once, O(|r|) per candidate) instead of the
	// per-class sort. Only affects ValidatorExact; results are identical.
	// Honored by the Serial executor only (the class-id cache is not shared
	// across runners).
	UseSortedScan bool
	// Bidirectional additionally searches mixed-direction order
	// compatibilities X: A ∼ B↓ (A ascending, B descending), after the
	// bidirectional framework of Szlichta et al. (VLDBJ 2018, reference
	// [10]) that the reproduced paper builds upon. Each unordered pair
	// yields two candidates; A↓ ∼ B↑ is equivalent to A↑ ∼ B↓ and is not
	// searched separately.
	Bidirectional bool
}

// DefaultSampleSlack is the hybrid-sampling rejection margin applied when
// Config.SampleSlack is zero.
const DefaultSampleSlack = 0.05

// Validate checks the configuration against a schema width.
func (c Config) Validate(numAttrs int) error {
	if numAttrs < 1 {
		return errors.New("core: table must have at least one attribute")
	}
	if numAttrs > 64 {
		return fmt.Errorf("core: at most 64 attributes supported, got %d", numAttrs)
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("core: threshold must be in [0,1], got %g", c.Threshold)
	}
	switch c.Validator {
	case ValidatorExact, ValidatorOptimal, ValidatorIterative:
	default:
		return fmt.Errorf("core: unknown validator kind %d", int(c.Validator))
	}
	if c.MaxLevel < 0 {
		return fmt.Errorf("core: MaxLevel must be >= 0, got %d", c.MaxLevel)
	}
	return nil
}

// effectiveThreshold returns ε with the exact-validator override applied.
func (c Config) effectiveThreshold() float64 {
	if c.Validator == ValidatorExact {
		return 0
	}
	return c.Threshold
}
