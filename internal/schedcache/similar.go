package schedcache

import (
	"slices"
	"strconv"

	"resched/internal/resources"
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

// deltaWithin is the multiset symmetric-difference distance between the
// two signatures (the number of hashes present in one but not the other,
// counting multiplicity) when that is at most bound, and ok is false
// otherwise. It is exact and cheap on far pairs: a multiset delta is at
// least the difference of the multiset sizes, so that bound rejects most
// pairs without a merge, and the merge stops once its count passes bound.
func (s *Signature) deltaWithin(o *Signature, bound int) (d int, ok bool) {
	if absDiff(len(s.tasks), len(o.tasks))+absDiff(len(s.edges), len(o.edges)) > bound {
		return 0, false
	}
	dt, ok := multisetDeltaWithin(s.tasks, o.tasks, bound)
	if !ok {
		return 0, false
	}
	de, ok := multisetDeltaWithin(s.edges, o.edges, bound-dt)
	if !ok {
		return 0, false
	}
	return dt + de, true
}

// multisetDeltaWithin merges two sorted slices and counts the unmatched
// elements on both sides, with an early exit: ok is false as soon as the
// count so far plus the size difference of what is left (a lower bound on
// the rest) exceeds bound.
func multisetDeltaWithin(a, b []uint64, bound int) (int, bool) {
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
			continue
		case a[i] < b[j]:
			i++
		default:
			j++
		}
		d++
		if d+absDiff(len(a)-i, len(b)-j) > bound {
			return 0, false
		}
	}
	d += (len(a) - i) + (len(b) - j)
	return d, d <= bound
}

func absDiff(a, b int) int {
	if a < b {
		return b - a
	}
	return a - b
}

// signatureOf fingerprints the graph. Each hash covers the byte stream
// "t|<name>" followed by "|i|<name>|<kind>|<time>|CLB:<n> BRAM:<n> DSP:<n>"
// per implementation, or "e|<from>|<to>|<comm>" per edge: decimal integers,
// the kind as its ImplKind number, the resources as resources.Vector
// prints them. The stream is built with strconv appends into one pooled
// buffer, not fmt; TestSignatureMatchesFmtOracle pins it to the fmt form.
func signatureOf(g *taskgraph.Graph) *Signature {
	c := canonPool.Get().(*canon)
	defer canonPool.Put(c)
	sig := &Signature{tasks: make([]uint64, 0, g.N())}
	for _, t := range g.Tasks {
		b := append(c.buf[:0], "t|"...)
		b = append(b, t.Name...)
		for i := range t.Impls {
			im := &t.Impls[i]
			b = append(b, "|i|"...)
			b = append(b, im.Name...)
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(im.Kind), 10)
			b = append(b, '|')
			b = strconv.AppendInt(b, im.Time, 10)
			b = append(b, '|')
			for k := resources.Kind(0); k < resources.NumKinds; k++ {
				if k > 0 {
					b = append(b, ' ')
				}
				b = append(b, k.String()...)
				b = append(b, ':')
				b = strconv.AppendInt(b, int64(im.Res[k]), 10)
			}
		}
		c.buf = b
		sig.tasks = append(sig.tasks, fnv64a(b))
	}
	// Edge hashes form a multiset, so the adjacency order is as good as
	// the sorted edge list and saves materializing it.
	edges := 0
	for from := range g.Tasks {
		edges += len(g.Succ(from))
	}
	sig.edges = make([]uint64, 0, edges)
	for from := range g.Tasks {
		comm := g.SuccComm(from)
		for i, to := range g.Succ(from) {
			b := append(c.buf[:0], "e|"...)
			b = strconv.AppendInt(b, int64(from), 10)
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(to), 10)
			b = append(b, '|')
			b = strconv.AppendInt(b, comm[i], 10)
			c.buf = b
			sig.edges = append(sig.edges, fnv64a(b))
		}
	}
	slices.Sort(sig.tasks)
	slices.Sort(sig.edges)
	return sig
}

// fnv64a is the 64-bit FNV-1a hash — cheap, allocation-free and stable
// across processes (unlike the runtime's seeded map hash).
func fnv64a(s []byte) uint64 {
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
