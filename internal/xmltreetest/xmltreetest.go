// Package xmltreetest generates random trees and tree patterns for tests.
// Its alphabet is three labels, so identical siblings and repeated labels —
// where sequencing and matching go wrong — are common. The values reuse the
// labels, so value collisions are common too.
package xmltreetest

import (
	"math/rand"

	"xseq/internal/xmltree"
)

var labels = []string{"A", "B", "C"}

// TextValues are values of several characters that share prefixes, for the
// text value representation, where a value is a chain of its characters.
var TextValues = []string{"a", "ab", "abc", "b", "ba", "bab"}

// leaves is where a tree's value leaves come from: one child in odds is a
// value, drawn from values.
type leaves struct {
	values []string
	odds   int
}

// RandomTree returns a tree of at most depth levels rooted at an element R
// (a fixed root label keeps a corpus schema-inferable). Every element above
// the last level has up to fan children, each a value leaf with
// probability 1/6 and a RandomSubtree otherwise.
func RandomTree(rng *rand.Rand, depth, fan int) *xmltree.Node {
	return grow(rng, xmltree.NewElem("R"), depth, fan, leaves{labels, 6})
}

// RandomTextTree is RandomTree with its values drawn from TextValues, each
// child a value leaf with probability 1/5.
func RandomTextTree(rng *rand.Rand, depth, fan int) *xmltree.Node {
	return grow(rng, xmltree.NewElem("R"), depth, fan, leaves{TextValues, 5})
}

// RandomSubtree is RandomTree with a random root label.
func RandomSubtree(rng *rand.Rand, depth, fan int) *xmltree.Node {
	return subtree(rng, depth, fan, leaves{labels, 6})
}

func subtree(rng *rand.Rand, depth, fan int, lv leaves) *xmltree.Node {
	return grow(rng, xmltree.NewElem(labels[rng.Intn(len(labels))]), depth, fan, lv)
}

func grow(rng *rand.Rand, n *xmltree.Node, depth, fan int, lv leaves) *xmltree.Node {
	if depth <= 1 {
		return n
	}
	for k := rng.Intn(fan + 1); k > 0; k-- {
		if rng.Intn(lv.odds) == 0 {
			n.Children = append(n.Children, xmltree.NewValue(lv.values[rng.Intn(len(lv.values))]))
		} else {
			n.Children = append(n.Children, subtree(rng, depth-1, fan, lv))
		}
	}
	return n
}

// RandomSubPattern returns a random connected sub-pattern of t with t's
// root: each child is kept, recursively, with probability 1/2. It embeds
// in t by construction.
func RandomSubPattern(rng *rand.Rand, t *xmltree.Node) *xmltree.Node {
	p := &xmltree.Node{Name: t.Name, Value: t.Value, IsValue: t.IsValue}
	for _, c := range t.Children {
		if rng.Intn(2) == 0 {
			p.Children = append(p.Children, RandomSubPattern(rng, c))
		}
	}
	return p
}
