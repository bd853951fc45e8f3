// Package zpart provides the global partitioners the paper's evaluation
// uses as baselines and initial conditions for ParMA: fast geometric
// methods (recursive coordinate bisection, recursive inertial
// bisection) and the more powerful multilevel graph and hypergraph
// methods (the role Zoltan's PHG plays in the paper's test T0).
//
// All partitioners are serial: they take an element-level view of one
// mesh (points, a dual graph, or a hypergraph) plus optional weights
// and return an element-to-part assignment, which the caller turns into
// a migration plan. This mirrors the paper's workflow of creating the
// initial partition globally and then improving it with ParMA.
//
// The two multilevel methods are one recursive-bisection driver
// (multilevel.go) over a small model interface that the graph (graph.go)
// and the hypergraph (hypergraph.go) implement.
package zpart
