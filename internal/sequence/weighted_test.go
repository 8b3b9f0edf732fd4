package sequence

import (
	"math"
	"testing"

	"xseq/internal/pathenc"
	"xseq/internal/schema"
	"xseq/internal/xmltree"
)

// TestNewByName: the shim the benchmark module compiles against builds
// g_best, with the weights applied, by the name "" and refuses any other.
func TestNewByName(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	sch := schema.Figure12()
	s, err := NewByName("", sch, enc, map[string]float64{"P/R": 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Probability); !ok {
		t.Fatalf("NewByName(\"\") = %T, want *Probability", s)
	}
	if w := sch.FindByNamePath([]string{"P", "R"}).Weight; w != 2 {
		t.Fatalf("weight of P/R = %v, want 2", w)
	}
	for _, name := range []string{"gbest", "weighted", "depth-first", "breadth-first"} {
		if _, err := NewByName(name, schema.Figure12(), enc, nil, false); err == nil {
			t.Errorf("NewByName(%q): want error", name)
		}
	}
}

// TestWeightedReordersSection52 reproduces the paper's Eq 6 effect on the
// Section 5.2 example: unweighted g_best emits U's subtree before L
// (p(U|root) > p(L|root) in Figure 12); boosting w(L) flips the order, so a
// frequently-queried L resolves earlier in every sequence.
func TestWeightedReordersSection52(t *testing.T) {
	pos := func(seq Sequence, enc *pathenc.Encoder, path string) int {
		for i, p := range names(enc, seq) {
			if p == path {
				return i
			}
		}
		t.Fatalf("path %s not in sequence %s", path, seq.String(enc))
		return -1
	}

	encA := pathenc.NewEncoder(0)
	base := NewProbability(schema.Figure12(), encA)
	seqA := base.Sequence(xmltree.Figure11a())
	if !(pos(seqA, encA, "P.R.U") < pos(seqA, encA, "P.R.L")) {
		t.Fatalf("unweighted: expected U before L: %s", seqA.String(encA))
	}

	encB := pathenc.NewEncoder(0)
	sch := schema.Figure12()
	if err := ApplyWeights(sch, map[string]float64{"P/R/L": 50}, false); err != nil {
		t.Fatal(err)
	}
	w := NewProbability(sch, encB)
	seqB := w.Sequence(xmltree.Figure11a())
	if !(pos(seqB, encB, "P.R.L") < pos(seqB, encB, "P.R.U")) {
		t.Fatalf("weighted: expected L before U: %s", seqB.String(encB))
	}
	// Reordered, but still a valid constraint sequence for the same tree.
	if err := Validate(encB, seqB); err != nil {
		t.Fatalf("weighted sequence invalid: %v", err)
	}
	subtreeContiguous(t, encB, xmltree.Figure11a(), seqB)
}

func TestApplyWeightsUnknownPath(t *testing.T) {
	if err := ApplyWeights(schema.Figure12(), map[string]float64{"P/nope": 2}, false); err == nil {
		t.Fatal("unknown weight path with skipUnknown=false: want error")
	}
	sch := schema.Figure12()
	if err := ApplyWeights(sch, map[string]float64{"P/nope": 2, "P/R": 3}, true); err != nil {
		t.Fatal(err)
	}
	if w := sch.FindByNamePath([]string{"P", "R"}).Weight; w != 3 {
		t.Fatalf("weight of P/R = %v, want 3 (the unknown path skipped)", w)
	}
}

// FuzzWeights: an arbitrary weight vector — extreme magnitudes, zeros,
// negatives, NaN-adjacent exponents — may reorder the g_best sequence but
// must never break constraint-sequence validity: the output still validates
// under f2 and decodes back to the input tree. This is the structural half
// of the weights-change-order-never-answers guarantee (the query-level half
// lives in the root equivalence suite).
func FuzzWeights(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 255, 128, 7})
	f.Add([]byte{255, 255, 255, 255, 255})
	f.Add([]byte{1, 1, 1, 1, 1})
	f.Add([]byte{200, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		paths := []string{"P", "P/R", "P/R/U", "P/R/L", "P/R/U/M"}
		weights := make(map[string]float64, len(paths))
		for i, b := range raw {
			if i >= len(paths) {
				break
			}
			// Bytes span w in ~[1e-4, 1e4]; byte 0 maps to a negative
			// weight, exercising the EffectiveWeight default-1 clamp.
			if b == 0 {
				weights[paths[i]] = -1
			} else {
				weights[paths[i]] = math.Pow(10, (float64(b)-128)/32)
			}
		}
		enc := pathenc.NewEncoder(0)
		sch := schema.Figure12()
		if err := ApplyWeights(sch, weights, false); err != nil {
			t.Fatalf("ApplyWeights(%v): %v", weights, err)
		}
		w := NewProbability(sch, enc)
		for _, fixture := range []*xmltree.Node{
			xmltree.Figure11a(), xmltree.Figure11b(), xmltree.Figure1(),
		} {
			seq := w.Sequence(fixture)
			if len(seq) != fixture.Size() {
				t.Fatalf("weights %v: sequence length %d, tree size %d", weights, len(seq), fixture.Size())
			}
			if err := Validate(enc, seq); err != nil {
				t.Fatalf("weights %v: invalid constraint sequence: %v\nseq %s", weights, err, seq.String(enc))
			}
			back, err := Decode(enc, seq)
			if err != nil {
				t.Fatalf("weights %v: decode: %v", weights, err)
			}
			if !xmltree.Isomorphic(back, CanonicalizeValues(fixture, enc)) {
				t.Fatalf("weights %v: round trip broke tree\nseq %s", weights, seq.String(enc))
			}
		}
	})
}
