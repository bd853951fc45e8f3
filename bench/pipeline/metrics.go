package pipeline

// MetricDef names one metric the benchmark reports, with its unit and
// the direction that counts as better. Bound is the share of the
// reference median by which an end-to-end metric may worsen before the
// change counts as a regression; per-layer metrics have none.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// Workload names, fixed: later issues cite them.
const (
	RepartitionVessel16 = "repartition-vessel16"
	HaloOffnode         = "halo-offnode"
	ParmaVessel32       = "parma-vessel32"
	AdaptShock          = "adapt-shock"
)

// WorkloadDef is one workload with the reason it exists.
type WorkloadDef struct {
	Name string
	Why  string
}

// Workloads lists the four workloads in run order. BENCHMARK.json
// repeats this table; TestBenchmarkJSON keeps the two in step.
var Workloads = []WorkloadDef{
	{RepartitionVessel16, "bulk all-to-all migration A to B and back of a 31k-tet vessel on 2x8 on-node parts: partition pack/unpack and the mesh create/destroy kernel do the work; parma, adapt, meshio idle"},
	{HaloOffnode, "solver inner loop on the same mesh off-node: ghost build, then 500 steps of small planned sync/reduce exchanges with serialize+CRC framing; pcu and boundary plans dominate, mesh kernel idle"},
	{ParmaVessel32, "ParMA T1-T4 (paper Tables I-III) on 2x16 parts: adjacency-driven selection plus hundreds of small cavity migrations and collectives, the opposite migrate regime from bulk repartition"},
	{AdaptShock, "paper Fig 13 loop on a box: adapt to a shock band (topology changes), heavy-part split and rebalance of the spiked partition, checkpoint save and restore, verify"},
}

// EndToEnd lists the metrics a user of the system sees, reported for
// every workload by the untraced pass.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pipeline_s", "s", "lower", 0.25},
	{"allocs_per_element", "1", "lower", 0.02},
	{"alloc_bytes_per_element", "B", "lower", 0.02},
	{"live_bytes_per_element", "B", "lower", 0.05},
	{"imbalance_max", "ratio", "lower", 0.01},
}

// PerLayer lists the single-layer metrics the traced pass reports; the
// module name is the prefix. A layer a workload does not exercise reads
// 0 there, which is itself the prediction "no change".
var PerLayer = []MetricDef{
	{"meshgen.generate_s", "s", "lower", 0},
	{"meshgen.us_per_tet", "us", "lower", 0},
	{"meshgen.allocs_per_tet", "1", "lower", 0},
	{"zpart.mlgraph_s", "s", "lower", 0},
	{"zpart.rcb_s", "s", "lower", 0},
	{"zpart.offnode_shared_share", "ratio", "lower", 0},
	{"partition.scatter_s", "s", "lower", 0},
	{"partition.scatter_us_per_element", "us", "lower", 0},
	{"partition.migrate_ab_s", "s", "lower", 0},
	{"partition.migrate_ba_s", "s", "lower", 0},
	{"partition.migrate_elements_moved", "count", "lower", 0},
	{"partition.migrate_us_per_moved", "us", "lower", 0},
	{"partition.migrate_allocs_per_moved", "1", "lower", 0},
	{"partition.reset_s", "s", "lower", 0},
	{"partition.ghost_build_s", "s", "lower", 0},
	{"partition.ghost_remove_s", "s", "lower", 0},
	{"partition.ghost_elements", "count", "lower", 0},
	{"partition.replan_us", "us", "lower", 0},
	{"partition.sync_ghost_us", "us", "lower", 0},
	{"partition.sync_shared_us", "us", "lower", 0},
	{"partition.reduce_shared_us", "us", "lower", 0},
	{"partition.step_us", "us", "lower", 0},
	{"partition.step_allocs", "1", "lower", 0},
	{"mesh.verify_s", "s", "lower", 0},
	{"mesh.verify_us_per_element", "us", "lower", 0},
	{"mesh.verify_allocs_per_element", "1", "lower", 0},
	{"mesh.bytes_per_element", "B", "lower", 0},
	{"mesh.bytes_per_entity", "B", "lower", 0},
	{"pcu.barrier_us", "us", "lower", 0},
	{"pcu.exchange_rt_us", "us", "lower", 0},
	{"pcu.msgs_per_cycle", "count", "lower", 0},
	{"pcu.onnode_bytes_per_cycle", "B", "lower", 0},
	{"pcu.offnode_bytes_per_cycle", "B", "lower", 0},
	{"pcu.offnode_bytes_per_step", "B", "lower", 0},
	{"pcu.collectives_per_cycle", "count", "lower", 0},
	{"pcu.retries", "count", "lower", 0},
	{"pcu.sync_floor_share", "ratio", "lower", 0},
	{"parma.balance_t1_s", "s", "lower", 0},
	{"parma.balance_t2_s", "s", "lower", 0},
	{"parma.balance_t3_s", "s", "lower", 0},
	{"parma.balance_t4_s", "s", "lower", 0},
	{"parma.iters", "count", "lower", 0},
	{"parma.ms_per_iter", "ms", "lower", 0},
	{"parma.imbalance_before_vtx", "ratio", "lower", 0},
	{"parma.imbalance_before_edge", "ratio", "lower", 0},
	{"parma.imbalance_before_face", "ratio", "lower", 0},
	{"parma.imbalance_before_rgn", "ratio", "lower", 0},
	{"parma.imbalance_after_vtx", "ratio", "lower", 0},
	{"parma.imbalance_after_edge", "ratio", "lower", 0},
	{"parma.imbalance_after_face", "ratio", "lower", 0},
	{"parma.imbalance_after_rgn", "ratio", "lower", 0},
	{"parma.split_s", "s", "lower", 0},
	{"parma.split_pieces", "count", "lower", 0},
	{"parma.rebalance_s", "s", "lower", 0},
	{"parma.rebalance_iters", "count", "lower", 0},
	{"adapt.parallel_s", "s", "lower", 0},
	{"adapt.rounds", "count", "lower", 0},
	{"adapt.splits", "count", "lower", 0},
	{"adapt.collapses", "count", "lower", 0},
	{"adapt.localized", "count", "lower", 0},
	{"adapt.us_per_split", "us", "lower", 0},
	{"adapt.elements_after", "count", "lower", 0},
	{"adapt.spike_imbalance", "ratio", "lower", 0},
	{"meshio.save_s", "s", "lower", 0},
	{"meshio.load_s", "s", "lower", 0},
	{"meshio.checkpoint_bytes", "B", "lower", 0},
	{"meshio.save_mb_per_s", "MB/s", "higher", 0},
	{"meshio.load_mb_per_s", "MB/s", "higher", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.peak_heap_mb", "MB", "lower", 0},
	{"runtime.machine_factor", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.stage_cover_ratio", "ratio", "higher", 0},
	{"trace.events", "count", "lower", 0},
	{"trace.dropped", "count", "lower", 0},
	{"trace.flight_events", "count", "lower", 0},
	{"trace.flight_dropped", "count", "lower", 0},
}

// FindMetric returns the definition of a metric by name.
func FindMetric(name string) (MetricDef, bool) {
	for _, list := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return MetricDef{}, false
}

// exact names the per-layer metrics that are counts made by the program
// or by the benchmark around it and must repeat exactly for a seed,
// however many cycles a run fits in: they are read on the first timed
// cycle. benchcmp -agree fails when one differs.
var exact = map[string]bool{
	"zpart.offnode_shared_share":       true,
	"partition.migrate_elements_moved": true,
	"partition.ghost_elements":         true,
	"pcu.msgs_per_cycle":               true,
	"pcu.onnode_bytes_per_cycle":       true,
	"pcu.offnode_bytes_per_cycle":      true,
	"pcu.collectives_per_cycle":        true,
	"pcu.retries":                      true,
	"parma.iters":                      true,
	"parma.imbalance_before_vtx":       true,
	"parma.imbalance_before_edge":      true,
	"parma.imbalance_before_face":      true,
	"parma.imbalance_before_rgn":       true,
	"parma.imbalance_after_vtx":        true,
	"parma.imbalance_after_edge":       true,
	"parma.imbalance_after_face":       true,
	"parma.imbalance_after_rgn":        true,
	"parma.split_pieces":               true,
	"parma.rebalance_iters":            true,
	"adapt.rounds":                     true,
	"adapt.splits":                     true,
	"adapt.collapses":                  true,
	"adapt.localized":                  true,
	"adapt.elements_after":             true,
	"adapt.spike_imbalance":            true,
	"meshio.checkpoint_bytes":          true,
}

// Exact reports whether a per-layer metric must repeat exactly for a seed.
func Exact(name string) bool { return exact[name] }
