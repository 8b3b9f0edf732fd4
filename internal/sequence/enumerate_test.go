package sequence

import "xseq/internal/xmltree"

// EnumerateSequences generates the distinct sequences a strategy can assign
// to the tree under permutations of identical-path sibling groups, capped
// at limit (<= 0: no cap) — the paper's false-dismissal remedy taken
// literally: "regard each of its isomorphism structures as a different
// query, and union the results". Trees without identical siblings yield
// exactly one sequence. The query kernel chooses these orders inside its
// descent instead (Plan); the tests here use the enumeration to reproduce
// the paper's isomorphism figures.
//
// Grouping is by sibling label, which coincides with grouping by path
// encoding: siblings share their parent path, so their paths are identical
// exactly when their labels are.
func EnumerateSequences(g Strategy, root *xmltree.Node, limit int) []Sequence {
	variants := enumerateSiblingOrders(root, limit)
	seen := map[string]bool{}
	var out []Sequence
	for _, v := range variants {
		s := g.Sequence(v)
		k := s.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// enumerateSiblingOrders returns clones of root covering all orderings of
// identical-path sibling groups (other siblings keep their positions).
func enumerateSiblingOrders(root *xmltree.Node, limit int) []*xmltree.Node {
	hasGroup := false
	root.Walk(func(n *xmltree.Node) bool {
		count := map[string]int{}
		for _, c := range n.Children {
			count[childKey(c)]++
			if count[childKey(c)] > 1 {
				hasGroup = true
			}
		}
		return !hasGroup
	})
	if !hasGroup {
		return []*xmltree.Node{root.Clone()}
	}
	var permute func(orig *xmltree.Node) []*xmltree.Node
	permute = func(orig *xmltree.Node) []*xmltree.Node {
		// First enumerate variants of each child subtree.
		childVariants := make([][]*xmltree.Node, len(orig.Children))
		for i, c := range orig.Children {
			childVariants[i] = permute(c)
		}
		// Cartesian product of child variants (capped).
		combos := [][]*xmltree.Node{{}}
		for _, cvs := range childVariants {
			var next [][]*xmltree.Node
			for _, combo := range combos {
				for _, cv := range cvs {
					nc := append(append([]*xmltree.Node{}, combo...), cv)
					next = append(next, nc)
					if limit > 0 && len(next) >= limit {
						break
					}
				}
				if limit > 0 && len(next) >= limit {
					break
				}
			}
			combos = next
		}
		// For each combo, permute identical-key sibling groups.
		var results []*xmltree.Node
		for _, combo := range combos {
			for _, perm := range permuteIdenticalGroups(combo, limit) {
				n := &xmltree.Node{Name: orig.Name, Value: orig.Value, IsValue: orig.IsValue, Children: perm}
				results = append(results, n)
				if limit > 0 && len(results) >= limit {
					return results
				}
			}
		}
		return results
	}
	out := permute(root)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func childKey(c *xmltree.Node) string {
	if c.IsValue {
		return "v\x00" + c.Value
	}
	return "e\x00" + c.Name
}

// permuteIdenticalGroups returns orderings of children where members of each
// identical-key group take every permutation among that group's positions.
func permuteIdenticalGroups(children []*xmltree.Node, limit int) [][]*xmltree.Node {
	positions := map[string][]int{}
	for i, c := range children {
		k := childKey(c)
		positions[k] = append(positions[k], i)
	}
	results := [][]*xmltree.Node{append([]*xmltree.Node{}, children...)}
	for _, pos := range positions {
		if len(pos) < 2 {
			continue
		}
		var next [][]*xmltree.Node
		for _, base := range results {
			members := make([]*xmltree.Node, len(pos))
			for i, p := range pos {
				members[i] = base[p]
			}
			for _, perm := range permutations(members, limit) {
				v := append([]*xmltree.Node{}, base...)
				for i, p := range pos {
					v[p] = perm[i]
				}
				next = append(next, v)
				if limit > 0 && len(next) >= limit {
					break
				}
			}
			if limit > 0 && len(next) >= limit {
				break
			}
		}
		results = next
	}
	return results
}

func permutations(items []*xmltree.Node, limit int) [][]*xmltree.Node {
	var out [][]*xmltree.Node
	var rec func(cur, rest []*xmltree.Node)
	rec = func(cur, rest []*xmltree.Node) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if len(rest) == 0 {
			out = append(out, append([]*xmltree.Node{}, cur...))
			return
		}
		for i := range rest {
			nr := append(append([]*xmltree.Node{}, rest[:i]...), rest[i+1:]...)
			rec(append(cur, rest[i]), nr)
		}
	}
	rec(nil, items)
	return out
}
