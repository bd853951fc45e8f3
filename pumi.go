// Package pumi is a Go implementation of PUMI, the Parallel Unstructured
// Mesh Infrastructure, together with ParMA, partitioning using mesh
// adjacencies (Seol, Smith, Ibanez, Shephard — SC 2012).
//
// The package is a facade over the library's subsystems, re-exporting
// the stable API surface:
//
//   - geometric models (gmi): analytic non-manifold boundary
//     representations with adjacency and shape interrogation;
//   - the mesh (mesh): a complete topological representation with O(1)
//     adjacencies, classification, tags, sets and iterators;
//   - fields (field): nodal tensor data with Lagrange shapes, global
//     numbering and synchronization;
//   - the distributed mesh (partition): parts, remote copies, the
//     partition model, migration, ghosting and multiple parts per
//     process, running on the pcu message-passing substrate;
//   - partitioners (zpart): RCB/RIB and multilevel graph/hypergraph;
//   - ParMA (parma): multi-criteria diffusive partition improvement and
//     heavy part splitting;
//   - adaptation (adapt): size-field-driven refinement and coarsening
//     with solution transfer.
//
// A minimal parallel workflow:
//
//	model := pumi.Box(1, 1, 1)
//	err := pumi.Run(8, func(ctx *pumi.Ctx) error {
//		var serial *pumi.Mesh
//		if ctx.Rank() == 0 {
//			serial = pumi.BoxMesh(model, 16, 16, 16)
//		}
//		dm, err := pumi.PartitionRCB(ctx, model.Model, 3, serial, 1)
//		if err != nil {
//			return err
//		}
//		pri, _ := pumi.ParsePriority("Vtx>Rgn")
//		if _, err := pumi.BalanceSafe(dm, pri, pumi.DefaultBalanceConfig()); err != nil {
//			return err
//		}
//		return pumi.Verify(dm)
//	})
package pumi

import (
	"github.com/fastmath/pumi-go/internal/adapt"
	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/field"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// Geometry and linear algebra.
type (
	// Vec is a point or vector in R^3.
	Vec = vec.V
	// Model is a non-manifold boundary-representation geometric model.
	Model = gmi.Model
	// ModelRef names a model entity (the classification target).
	ModelRef = gmi.Ref
	// BoxModel is the analytic box domain.
	BoxModel = gmi.BoxModel
	// RectModel is the analytic 2D rectangle domain.
	RectModel = gmi.RectModel
	// VesselModel is the bent-tube AAA surrogate domain.
	VesselModel = gmi.VesselModel
)

// Mesh types.
type (
	// Mesh is one mesh part: the complete topological representation.
	Mesh = mesh.Mesh
	// Ent is a mesh entity handle M^d_i.
	Ent = mesh.Ent
	// EntType enumerates topological entity types.
	EntType = mesh.Type
)

// Entity types.
const (
	Vertex  = mesh.Vertex
	Edge    = mesh.Edge
	Tri     = mesh.Tri
	Quad    = mesh.Quad
	Tet     = mesh.Tet
	Hex     = mesh.Hex
	Prism   = mesh.Prism
	Pyramid = mesh.Pyramid
)

// Parallel runtime.
type (
	// Ctx is one rank's handle on the parallel runtime.
	Ctx = pcu.Ctx
	// Topology describes the node/core machine layout.
	Topology = hwtopo.Topology
	// DMesh is a distributed mesh: this rank's parts plus global layout.
	DMesh = partition.DMesh
	// Part is one part of a distributed mesh with its global ids.
	Part = partition.Part
	// Plan maps elements to destination parts for migration.
	Plan = partition.Plan
	// PtnModel is the partition model (residence-set classes).
	PtnModel = partition.PtnModel
)

// Fields.
type (
	// Field is nodal tensor data over a mesh part.
	Field = field.Field
	// FieldShape selects the nodal distribution (Linear, Quadratic).
	FieldShape = field.Shape
)

// Field shapes.
const (
	Linear    = field.Linear
	Quadratic = field.Quadratic
)

// ParMA.
type (
	// Priority is a ParMA entity-type priority list (e.g. Vtx>Rgn).
	Priority = parma.Priority
	// BalanceConfig controls ParMA improvement.
	BalanceConfig = parma.Config
	// BalanceResult reports a BalanceSafe run.
	BalanceResult = parma.Result
)

// SizeField prescribes desired edge lengths for adaptation.
type SizeField = adapt.SizeField

// TagKind identifies the value type of an entity tag.
type TagKind = ds.TagKind

// Tag kinds.
const (
	TagInt        = ds.TagInt
	TagFloat      = ds.TagFloat
	TagIntSlice   = ds.TagIntSlice
	TagFloatSlice = ds.TagFloatSlice
	TagBytes      = ds.TagBytes
)

// GeomInput is the element-point view geometric partitioners consume.
type GeomInput = zpart.GeomInput

// BoundaryTraffic classifies part-boundary duplication by architecture.
type BoundaryTraffic = partition.BoundaryTraffic

// Model constructors.
var (
	// Box builds the [0,lx]x[0,ly]x[0,lz] box model.
	Box = gmi.Box
	// Rect builds the 2D rectangle model.
	Rect = gmi.Rect
	// Vessel builds the AAA-surrogate bent-tube model.
	Vessel = gmi.Vessel
	// Wing builds the wing-box surrogate model.
	Wing = gmi.Wing
)

// Mesh generation.
var (
	// NewMesh creates an empty mesh part of the given dimension.
	NewMesh = mesh.New
	// BoxMesh generates a classified structured tet mesh of a box.
	BoxMesh = meshgen.Box3D
	// RectMesh generates a classified structured tri mesh of a rectangle.
	RectMesh = meshgen.Rect2D
	// VesselMesh generates a classified tet mesh of the vessel model.
	VesselMesh = meshgen.Vessel3D
)

// Mesh I/O.
var (
	// SaveMesh writes a mesh to a file.
	SaveMesh = meshio.SaveFile
	// LoadMesh reads a mesh from a file.
	LoadMesh = meshio.LoadFile
)

// Parallel runtime entry points.
var (
	// Run executes a function on n ranks of a single node.
	Run = pcu.Run
	// RunOn executes a function on n ranks of a given machine topology.
	RunOn = pcu.RunOn
	// Cluster builds a synthetic multi-node topology.
	Cluster = hwtopo.Cluster
	// DetectTopology returns the host machine's topology.
	DetectTopology = hwtopo.Detect
	// Collective reductions over all ranks.
	SumInt64   = pcu.SumInt64
	SumFloat64 = pcu.SumFloat64
	MaxFloat64 = pcu.MaxFloat64
	MaxInt64   = pcu.MaxInt64
)

// Distributed mesh services.
var (
	// Distribute scatters rank 0's serial mesh by a per-element
	// assignment: how a workflow gets its distributed mesh.
	Distribute = partition.Distribute
	// Adopt wraps a serial mesh (rank 0) into a distributed mesh whose
	// part 0 holds all of it; Distribute is Adopt plus the scatter.
	Adopt = partition.Adopt
	// NewDMesh creates an empty distributed mesh.
	NewDMesh = partition.New
	// TryMigrate moves elements between parts per the plans; an aborted
	// migration returns an error and leaves the mesh intact.
	TryMigrate = partition.TryMigrate
	// PlansFromAssignment turns a rank-0 global assignment into plans.
	PlansFromAssignment = partition.PlansFromAssignment
	// Ghost builds N layers of read-only ghost elements.
	Ghost = partition.Ghost
	// RemoveGhosts deletes all ghost entities.
	RemoveGhosts = partition.RemoveGhosts
	// SyncGhostFloatTag pushes owners' element tag values to ghosts.
	SyncGhostFloatTag = partition.SyncGhostFloatTag
	// BuildPtnModel constructs the partition model.
	BuildPtnModel = partition.BuildPtnModel
	// Verify checks the distributed mesh invariants: remote-copy links,
	// gids, owners, boundary closure and the compiled exchange plans.
	Verify = partition.Verify
	// GatherCounts gathers per-part entity counts of one dimension.
	GatherCounts = partition.GatherCounts
	// EntityImbalance returns (mean, max/mean) for one dimension.
	EntityImbalance = partition.EntityImbalance
	// GlobalCount counts distinct entities across all parts.
	GlobalCount = partition.GlobalCount
	// GatherBoundaryTraffic sums on-node vs off-node boundary sharing.
	GatherBoundaryTraffic = partition.GatherBoundaryTraffic
)

// Partitioners.
var (
	// Centroids extracts element points for geometric partitioning.
	Centroids = zpart.Centroids
	// RCB is recursive coordinate bisection.
	RCB = zpart.RCB
	// RIB is recursive inertial bisection.
	RIB = zpart.RIB
	// DualGraph extracts the element face-adjacency graph.
	DualGraph = zpart.DualGraph
	// MLGraph is the multilevel graph partitioner.
	MLGraph = zpart.MLGraph
	// ElementHypergraph extracts the element hypergraph.
	ElementHypergraph = zpart.ElementHypergraph
	// PHG is the multilevel hypergraph partitioner.
	PHG = zpart.PHG
)

// ParMA operations.
var (
	// ParsePriority parses a priority list like "Vtx=Edge>Rgn".
	ParsePriority = parma.ParsePriority
	// BalanceSafe runs multi-criteria partition improvement.
	BalanceSafe = parma.BalanceSafe
	// HeavyPartSplit merges light parts and splits heavy ones.
	HeavyPartSplit = parma.HeavyPartSplit
	// DefaultBalanceConfig is the paper's 5% tolerance setup.
	DefaultBalanceConfig = parma.DefaultConfig
)

// Fields.
var (
	// NewField creates a nodal field on a mesh part.
	NewField = field.New
	// FindField looks up a field by name.
	FindField = field.Find
	// SyncField pushes owned shared node values to copies.
	SyncField = field.Sync
	// AccumulateShared folds copy contributions into owner nodes.
	AccumulateShared = field.AccumulateShared
	// NumberField assigns global DOF ids across parts.
	NumberField = field.Number
)

// Adaptation.
var (
	// UniformSize is a constant size field.
	UniformSize = adapt.Uniform
	// RefineMesh splits long edges of one part.
	RefineMesh = adapt.Refine
	// CoarsenMesh collapses short edges of one part.
	CoarsenMesh = adapt.Coarsen
	// AdaptParallel adapts a distributed mesh to a size field.
	AdaptParallel = adapt.Parallel
	// NewFieldTransfer carries linear fields through adaptation.
	NewFieldTransfer = adapt.NewFieldTransfer
	// AdaptMesh is the serial refine+coarsen driver for one part.
	AdaptMesh = adapt.Adapt
	// PredictedElements estimates an element's post-adaptation count.
	PredictedElements = adapt.PredictedElements
)

// Mesh-to-mesh solution transfer and point location.
var (
	// Locate finds the element containing a point by mesh walking.
	Locate = field.Locate
	// TransferField re-samples a linear field between meshes.
	TransferField = field.Transfer
	// BalanceWeights runs ParMA diffusion on application weights.
	BalanceWeights = parma.BalanceWeights
)

// PartitionRCB distributes a serial mesh held by rank 0 over k parts per
// rank with recursive coordinate bisection: Distribute with an RCB
// assignment. Other ranks pass a nil mesh.
func PartitionRCB(ctx *Ctx, model *Model, dim int, serial *Mesh, k int) (*DMesh, error) {
	var assign []int32
	if ctx.Rank() == 0 {
		in, _ := Centroids(serial)
		assign = RCB(in, ctx.Size()*k)
	}
	return Distribute(ctx, model, dim, serial, assign, k)
}

// AdaptOptions configures distributed adaptation.
type AdaptOptions = adapt.Options

// DefaultAdaptOptions returns the default adaptation options.
func DefaultAdaptOptions() AdaptOptions { return adapt.DefaultOptions() }
