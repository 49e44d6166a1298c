package schedcache

import (
	"fmt"
	"slices"
	"strings"

	"resched/internal/taskgraph"
)

// Signature is the similarity fingerprint of a problem instance: one
// 64-bit hash per task (name plus every implementation field, in declared
// order — implementation indices are schedule-relevant) and one per edge
// (endpoint indices plus communication cost). Both slices are sorted, so
// the distance between two signatures is a multiset symmetric difference:
// perturbing one field of one task changes exactly one task hash (delta 2:
// old hash out, new hash in) plus nothing on the edge side, while
// inserting or removing a task renumbers indices and blows up the edge
// delta — which is what makes structural edits conservatively non-warm.
//
// Edge hashes use task *indices*, not task content hashes, precisely so a
// content perturbation does not cascade through every incident edge.
type Signature struct {
	tasks []uint64
	edges []uint64
}

// Size is the total multiset size, the scale the near-miss threshold is
// relative to.
func (s *Signature) Size() int { return len(s.tasks) + len(s.edges) }

// Delta is the multiset symmetric-difference distance between the two
// signatures: the number of hashes present in one but not the other,
// counting multiplicity.
func (s *Signature) Delta(o *Signature) int {
	return multisetDelta(s.tasks, o.tasks) + multisetDelta(s.edges, o.edges)
}

// multisetDelta merges two sorted slices and counts the unmatched
// elements on both sides.
func multisetDelta(a, b []uint64) int {
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			i++
			d++
		default:
			j++
			d++
		}
	}
	return d + (len(a) - i) + (len(b) - j)
}

// signatureOf fingerprints the graph.
func signatureOf(g *taskgraph.Graph) *Signature {
	sig := &Signature{
		tasks: make([]uint64, 0, g.N()),
	}
	var b strings.Builder
	for _, t := range g.Tasks {
		b.Reset()
		b.WriteString("t|")
		b.WriteString(t.Name)
		for _, im := range t.Impls {
			fmt.Fprintf(&b, "|i|%s|%d|%d|%v", im.Name, int(im.Kind), im.Time, im.Res)
		}
		sig.tasks = append(sig.tasks, fnv64a(b.String()))
	}
	edges, comm := g.EdgesComm()
	sig.edges = make([]uint64, 0, len(edges))
	for i, e := range edges {
		b.Reset()
		fmt.Fprintf(&b, "e|%d|%d|%d", e[0], e[1], comm[i])
		sig.edges = append(sig.edges, fnv64a(b.String()))
	}
	slices.Sort(sig.tasks)
	slices.Sort(sig.edges)
	return sig
}

// fnv64a is the 64-bit FNV-1a hash — cheap, allocation-free and stable
// across processes (unlike the runtime's seeded map hash).
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
