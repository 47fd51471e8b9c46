package query

import (
	"fmt"
	"strings"
)

// This file implements Scenario 3 (intra-query adaptation): "the
// statistics provided by the metadata are not quite accurate enough
// for the pre-optimisor to build the optimal plan. It becomes obvious
// that the original cost calculations need revised ... The query plan
// is revised to perhaps change the join's inner-loop to the
// outer-loop or add an index to one of the tables. The components
// that carry out this are called upon and linked into the query
// pipeline at run-time."
//
// The router (routing.go) runs every hash build with safe points at
// least every CheckEvery rows of a worker's progress. When the observed
// build cardinality exceeds Theta × the optimiser's estimate, the build
// aborts at the safe point, the estimate is corrected and the remaining
// joins are re-routed: typically the join sides swap (the consumed
// build prefix is replayed as probe input, so no work is lost and no
// result is duplicated), or — with PreferIndex, when the other side has
// an index on the join column — an index nested-loop join is linked in
// instead. This file holds the knobs and the report.

// AdaptiveConfig tunes the mid-query re-optimiser.
type AdaptiveConfig struct {
	// Theta is the misestimate ratio that triggers replanning.
	Theta float64
	// CheckEvery is the safe-point cadence in build rows.
	CheckEvery int
	// PreferIndex lets a first-join revision link in an index
	// nested-loop join when the other table has an index on the join
	// column and no pushed-down predicate.
	PreferIndex bool
	// Disabled turns safe-point adaptation off entirely: the executor
	// follows the static plan verbatim (no feedback, no replans). Used
	// by benchmarks to isolate plan-time ordering from runtime routing,
	// and by the one-worker re-run after a contained worker panic.
	Disabled bool
}

// DefaultAdaptiveConfig returns Theta=3, CheckEvery=64.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{Theta: 3, CheckEvery: 64}
}

// AdaptiveReport describes what the re-optimiser did.
type AdaptiveReport struct {
	Replanned bool
	// Replans counts safe-point plan revisions.
	Replans int
	// TriggerRow is the build row count at which the first violation
	// fired.
	TriggerRow int
	// EstimatedBuildRows is what the optimiser believed.
	EstimatedBuildRows float64
	// InitialBuild / FinalBuild name the build-side bindings (of the
	// first join the router executed, for multi-join plans).
	InitialBuild string
	FinalBuild   string
	// UsedIndex reports an index-NL join was linked in.
	UsedIndex bool
	// PeakHashRows is the largest hash table materialised across the
	// whole execution (memory proxy).
	PeakHashRows int
	// ExecutedOrder lists table bindings in the order the router
	// actually materialised them (empty when execution followed the
	// static plan trivially, e.g. join-free statements).
	ExecutedOrder []string
}

// Describe renders the post-execution adaptation summary appended to
// Explain output. Golden tests pin this format.
func (r *AdaptiveReport) Describe() string {
	if !r.Replanned {
		return "adapt: none"
	}
	s := fmt.Sprintf("adapt: replans=%d trigger=%d build=%s->%s",
		r.Replans, r.TriggerRow, r.InitialBuild, r.FinalBuild)
	if r.UsedIndex {
		s += " index-nl"
	}
	if len(r.ExecutedOrder) > 0 {
		s += " order=" + strings.Join(r.ExecutedOrder, ",")
	}
	return s
}
