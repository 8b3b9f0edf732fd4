package sequence

// The weighted g_best variant (Section 5, Eq 6) and the strategy name
// registry the CLIs and the adaptive resequencer build from.
//
// Weighted IS Probability — the priority machinery already multiplies each
// node's root-conditional probability by the schema node's EffectiveWeight
// (p'(C|root) = p(C|root)·w(C)), so the weighted variant's whole job is to
// install the weight vector into the schema BEFORE the Model is built
// (Models memoize priorities) and to answer to a distinct name. Because the
// weights live in the schema, they survive snapshot persistence: a reloaded
// index reconstructs its prioritizer from the persisted schema and computes
// the same weighted priorities, keeping the data and query sequencing
// order-compatible across Save/Load.

import (
	"fmt"
	"strings"

	"xseq/internal/pathenc"
	"xseq/internal/schema"
)

// Canonical strategy names. The empty string is accepted everywhere as an
// alias for NameGBest, the paper's default.
const (
	NameGBest        = "gbest"
	NameWeighted     = "weighted"
	NameDepthFirst   = "depth-first"
	NameBreadthFirst = "breadth-first"
)

// Names lists the canonical strategy names in presentation order.
func Names() []string {
	return []string{NameGBest, NameWeighted, NameDepthFirst, NameBreadthFirst}
}

// CanonicalName resolves a user-facing strategy name — accepting the
// aliases that have accumulated in docs and flags — to its canonical form,
// or errors for unknown names (CLIs turn that into usage exit code 2).
func CanonicalName(name string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", NameGBest, "g_best", "g-best", "constraint":
		return NameGBest, nil
	case NameWeighted, "weighted-gbest":
		return NameWeighted, nil
	case NameDepthFirst, "depthfirst", "dfs":
		return NameDepthFirst, nil
	case NameBreadthFirst, "breadthfirst", "bfs":
		return NameBreadthFirst, nil
	default:
		return "", fmt.Errorf("sequence: unknown strategy %q (want one of %s)", name, strings.Join(Names(), ", "))
	}
}

// Weighted is g_best with an explicit query-frequency weight vector applied:
// priorities are p(C|root)·w(C) with w(C) taken from the installed weights
// rather than the schema's defaults. It inherits all of Probability's
// behaviour (blocking what the schema lets repeat, Prioritizer for the
// query side).
type Weighted struct {
	Probability
	applied int // weight paths that resolved to a schema node
}

// Name implements Strategy.
func (*Weighted) Name() string { return NameWeighted }

// Applied reports how many weight paths resolved to schema nodes.
func (s *Weighted) Applied() int { return s.applied }

// NewWeighted installs weights (slash-separated root-anchored element name
// paths -> w(C)) into sch and builds the weighted strategy over it. The
// install happens before the Model exists because Models memoize priorities.
// Unknown paths are skipped when skipUnknown is set — online-derived weight
// vectors legitimately mention paths a corpus partition lacks — and error
// otherwise.
func NewWeighted(sch *schema.Schema, enc *pathenc.Encoder, weights map[string]float64, skipUnknown bool) (*Weighted, error) {
	applied, err := ApplyWeights(sch, weights, skipUnknown)
	if err != nil {
		return nil, err
	}
	return &Weighted{
		Probability: Probability{Enc: enc, Model: schema.NewModel(sch, enc)},
		applied:     applied,
	}, nil
}

// AsProbability unwraps a strategy to its probability core when it has
// one: Probability itself, or Weighted — whose weights live in the schema,
// so persistence reconstructs identical priorities on load. Strategies
// without a probability core (the positional baselines) report false.
func AsProbability(s Strategy) (*Probability, bool) {
	switch v := s.(type) {
	case *Probability:
		return v, true
	case *Weighted:
		return &v.Probability, true
	}
	return nil, false
}

// ApplyWeights writes a weight vector into the schema, returning how many
// paths resolved. Must run before schema.NewModel for the weights to take
// effect in that model.
func ApplyWeights(sch *schema.Schema, weights map[string]float64, skipUnknown bool) (int, error) {
	applied := 0
	for path, w := range weights {
		names := strings.Split(strings.Trim(path, "/"), "/")
		if err := sch.SetWeightByNamePath(names, w); err != nil {
			if skipUnknown {
				continue
			}
			return applied, fmt.Errorf("weight %q: %w", path, err)
		}
		applied++
	}
	return applied, nil
}

// NewByName builds the named strategy over an inferred schema and encoder.
// The gbest and weighted strategies apply the weight vector (weighted always
// skips unknown paths — its vectors are derived from live traffic, not
// hand-written); the positional baselines (depth-first, breadth-first)
// ignore probabilities entirely and reject weights so a misconfiguration
// fails loudly instead of silently dropping the vector.
func NewByName(name string, sch *schema.Schema, enc *pathenc.Encoder, weights map[string]float64, skipUnknown bool) (Strategy, error) {
	canon, err := CanonicalName(name)
	if err != nil {
		return nil, err
	}
	switch canon {
	case NameGBest:
		if _, err := ApplyWeights(sch, weights, skipUnknown); err != nil {
			return nil, err
		}
		return NewProbability(sch, enc), nil
	case NameWeighted:
		return NewWeighted(sch, enc, weights, true)
	case NameDepthFirst:
		if len(weights) > 0 {
			return nil, fmt.Errorf("sequence: strategy %q is positional and does not use weights", canon)
		}
		return DepthFirst{Enc: enc}, nil
	default: // NameBreadthFirst
		if len(weights) > 0 {
			return nil, fmt.Errorf("sequence: strategy %q is positional and does not use weights", canon)
		}
		return BreadthFirst{Enc: enc}, nil
	}
}
