package workload

import (
	"reflect"
	"testing"

	"relief/internal/graph"
)

// TestCloneMatchesBuild: a clone of an application's template is the DAG a
// fresh Build returns, node for node and edge for edge, with its own nodes
// and link arrays, and a clone of a template that has already run starts
// from zero run-time state.
func TestCloneMatchesBuild(t *testing.T) {
	for a := App(0); a < NumApps; a++ {
		tmpl := MustBuild(a)
		// Dirty the template's run-time state; a clone must not copy it.
		tmpl.Release, tmpl.FinishAt, tmpl.Iteration, tmpl.Slot = 5, 9, 3, 7
		for _, n := range tmpl.Nodes {
			n.State, n.CompletedParents, n.Deadline, n.Laxity, n.IsFwd = graph.Done, 1, 2, 3, true
		}
		c := tmpl.Clone()
		want := MustBuild(a)
		if c.App != want.App || c.Sym != want.Sym || c.Deadline != want.Deadline ||
			c.Release != 0 || c.FinishAt != 0 || c.Iteration != 0 || c.Slot != 0 || c.Finished() {
			t.Fatalf("%v: clone DAG header %+v, want a fresh %+v", a, c, want)
		}
		if len(c.Nodes) != len(want.Nodes) {
			t.Fatalf("%v: clone has %d nodes, want %d", a, len(c.Nodes), len(want.Nodes))
		}
		ids := func(ns []*graph.Node) []int {
			var out []int
			for _, n := range ns {
				out = append(out, n.ID)
			}
			return out
		}
		for i, n := range c.Nodes {
			w := want.Nodes[i]
			if n == tmpl.Nodes[i] || n.DAG != c {
				t.Fatalf("%v: clone node %d is shared with the template or points at another DAG", a, i)
			}
			if !reflect.DeepEqual(ids(n.Parents), ids(w.Parents)) || !reflect.DeepEqual(ids(n.Children), ids(w.Children)) {
				t.Errorf("%v node %d: links parents=%v children=%v, want %v %v", a, i,
					ids(n.Parents), ids(n.Children), ids(w.Parents), ids(w.Children))
			}
			for _, p := range n.Parents {
				if p.DAG != c {
					t.Fatalf("%v node %d: parent outside the clone", a, i)
				}
			}
			// Compare every field but the links and the DAG back-pointer.
			nc, wc := *n, *w
			nc.Parents, nc.Children, nc.DAG = nil, nil, nil
			wc.Parents, wc.Children, wc.DAG = nil, nil, nil
			if !reflect.DeepEqual(nc, wc) {
				t.Errorf("%v node %d: clone %+v, want %+v", a, i, nc, wc)
			}
		}
		// Appending to one node's links must not clobber its neighbour's.
		for _, n := range c.Nodes {
			if cap(n.Parents) != len(n.Parents) || cap(n.Children) != len(n.Children) {
				t.Fatalf("%v node %d: link slices have spare capacity into a shared array", a, n.ID)
			}
		}
	}
}
