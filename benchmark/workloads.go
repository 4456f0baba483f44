package main

// The benchmark's definition. Sizes, rates, k, slice counts and the latency
// limit are constants here, each with the sizing measurement behind it, so
// that one workload name always means one benchmark. The only inputs are
// --workload, --seed and --trace; --seconds must be runSeconds.
//
// Sizing was done on the 2-core sandbox the driver also uses. The driver
// makes 4 + 22 × 4 runs inside 3420 s, 36 s a run after two 18 s builds,
// and the host runs up to 1.35× slower in some hours than in others, so a
// run may average 28 s in a quiet hour (measured: 31 + 31 + 22 + 31 for the
// four workloads; 32 s a run in a disturbed hour).

const (
	// k is the number of neighbours every /search asks for.
	k = 10

	// workers is every core.Config.Workers and pool.New in the benchmark:
	// one load-generator goroutine plus one program worker fill the two
	// cores. Sizing: core.Embedder.Fit repeated 7× in one process spread
	// ±17 % at Workers = 2 and ±2 % at Workers = 1.
	workers = 1

	// minRecall is the floor the recall gate holds recall_at_10 to.
	minRecall = 0.95

	// runSeconds is BENCHMARK.json's run_seconds, the only --seconds the
	// benchmark accepts: the rounds after set-up are sized to measure for
	// about that long, and another length would be another benchmark.
	runSeconds = 20

	// dataSeed generates the data the quality metrics depend on — the
	// labelled corpus, the catalog — and seeds the fit. It is a constant,
	// like a checked-in data set: type_precision, recall_at_10, heap_mb and
	// disk_bytes_per_col then repeat from run to run and can carry bounds
	// of 1–5 %. Across ten seeds of a seeded corpus type_precision spread
	// 2.3–2.6 % with no change in the code. --seed draws the traffic.
	dataSeed = 12
)

// sizes are the benchmark's dimensions. fullSizes is the benchmark;
// tinySizes exists only so that the smoke test can walk the same code in
// seconds.
type sizes struct {
	// Model under test — what gemserve fits by default, except Restarts,
	// which the workload sets. One restart of this fit runs 200 EM
	// iterations (it never converges earlier) over 8000 values × 50
	// components in 1.6 s at Workers = 1.
	components, subsampleStack, maxIter int

	// gdsScale scales the labelled corpus of the gds workload (1 gives the
	// paper's ≈ 2.5 k columns); the other workloads score type_precision on
	// half of that, because the protocol is quadratic in the column count
	// (≈ 2 s at 2.5 k columns, 0.5 s at half).
	gdsScale float64
	// fitColumns is how many catalog columns the serve workloads fit their
	// model on; more changes nothing because the stack is subsampled.
	fitColumns int
	// loadChunk is the number of columns per POST /columns while a catalog
	// is loaded (a 0.5 MB body, well under the 8 MiB cap).
	loadChunk int
	// hotPool is the number of distinct query columns the hot phases cycle
	// through. Each is sent once after every (re)start, so every timed
	// request for one is a cache hit (the cache holds 4096).
	hotPool int
	// coldValues is the value count of a never-seen query column. A
	// signature costs ≈ 1 µs per value at 50 components, so 1000 values
	// make the embed step (≈ 1 ms) dominate a cold /search.
	coldValues int
	// batchColumns is the number of query columns per batched /search;
	// embedColumns the number of fresh columns per /embed request (the
	// server's MaxBatch, so one request fills one signature pass).
	batchColumns, embedColumns int

	// A slice of a request phase ends once it has spent sliceSeconds inside
	// requests AND its requests carried the phase's minimum of columns.
	// Hot /search answers ≈ 6000 requests/s, so a hot slice is 0.1 s and
	// ≥ 600 requests; a batched one ≈ 50 requests of 16. A cold /search
	// takes ≈ 2.5 ms, so a cold slice is coldSliceOps requests (0.17 s),
	// and /embed ≈ 75 ms per 64 columns of 1000 values, so an /embed slice
	// is embedSliceOps columns (3 requests, 0.23 s). Many short slices beat
	// few long ones: a burst of interference spoils the slices it touches,
	// and the best quarter is taken from the rest.
	sliceSeconds                             float64
	hotSliceOps, coldSliceOps, embedSliceOps int

	// compactEvery is the server's CompactEvery; one compaction cycle of the
	// write stream (search, add, search, remove) is 4 × compactEvery
	// requests. gemserve defaults to 1024, which ISSUE 12 paired with an
	// 8192-column catalog whose rebuild holds the catalog lock for ≈ 30 % of
	// a cycle. The catalogs here are smaller and their rebuilds shorter, so
	// 256 keeps the stall a comparable share of the cycle and the write
	// metrics sensitive to it. Measured on serve_mixed_durable with Flat
	// swapped in for HNSW (no rebuild at all): read_slo_ok_frac 0.58 → 0.97
	// and mixed_ops_per_s +92 % at 256; 0.86 → 0.99 and +50 % at 1024. Same
	// direction, and at 1024 a rebuild twice as slow would move
	// read_slo_ok_frac by about its bound. A 4096-request cycle also takes
	// 4.5 s (16 s at 32 768 columns), so three of them would not fit in a run.
	compactEvery int

	// readPeriodMS is the open-loop reader's schedule beside the write
	// stream (200 requests/s, ≈ 5 % of what the server sustains), and
	// sloLimitMS the latency, counted from the due time, a read must meet.
	// An undisturbed hot read takes 0.3 ms; an index rebuild holds the
	// catalog lock for 0.2–3 s depending on catalog size.
	readPeriodMS, sloLimitMS float64

	// recallProbes /search answers are compared with exact brute force;
	// restartProbes bodies must be byte-identical across every restart.
	recallProbes, restartProbes int

	// ladderCalls is how many timed calls one rung of the per-layer ladder
	// makes; the median of 512 microsecond-scale calls repeats within a
	// few percent.
	ladderCalls int
}

var fullSizes = sizes{
	components: 50, subsampleStack: 8000, maxIter: 200,
	gdsScale: 1, fitColumns: 2048, loadChunk: 512, hotPool: 1024, coldValues: 1000,
	batchColumns: 16, embedColumns: 64,
	sliceSeconds: 0.1, hotSliceOps: 200, coldSliceOps: 64, embedSliceOps: 192,
	compactEvery: 256, readPeriodMS: 5, sloLimitMS: 10,
	recallProbes: 256, restartProbes: 64, ladderCalls: 512,
}

var tinySizes = sizes{
	components: 8, subsampleStack: 1000, maxIter: 20,
	gdsScale: 0.1, fitColumns: 128, loadChunk: 64, hotPool: 32, coldValues: 100,
	batchColumns: 4, embedColumns: 8,
	sliceSeconds: 0.02, hotSliceOps: 10, coldSliceOps: 10, embedSliceOps: 16,
	compactEvery: 16, readPeriodMS: 5, sloLimitMS: 10,
	recallProbes: 16, restartProbes: 8, ladderCalls: 16,
}

// workload is one operating point of the pipeline every run executes: set
// up (fit, load the durable catalog, warm), then rounds of every read phase,
// embed passes, one compaction cycle of the write stream and one restart.
// All workloads run every phase unchanged, so every metric exists for every
// workload; the operating point decides which layers a phase leans on, and
// the per-round slice counts put most of a run where the workload's own
// metrics are measured.
type workload struct {
	name string
	why  string

	// gds makes the paper-shaped labelled corpus (data.GDS at scale 1,
	// ≈ 2.5 k columns) the fit corpus and the catalog; otherwise the
	// catalog is data.ScalabilityDataset(columns) and the model is fitted
	// on its first fitColumns columns. Either way the embed passes and
	// type_precision run on the labelled corpus.
	gds     bool
	columns int
	shards  int
	// restarts is the model's EM restart count.
	restarts int
	// fits is the number of core.Embedder.Fit calls, each a slice of fit_s;
	// the last setups of them go on to a full set-up (load + warm) and
	// setup_s is the median of those. A set-up costs 2.3–5 s and setup_s is
	// not held to a spread, so two; a fit of one restart costs 1.6 s and
	// two fits spread 14–31 % in a disturbed hour, so three.
	fits, setups int
	// rounds is the number of measurement rounds. Each runs the slices
	// below and ends with one compaction cycle and one restart, so every
	// metric's slices are spread over the whole run.
	rounds int
	// Slices per round.
	embedPasses  int // core.Embedder.Embed passes over the labelled columns
	searchSlices int // single-column hot /search
	batchSlices  int // batchColumns-column hot /search
	coldSlices   int // single-column /search with a never-seen column
	embedSlices  int // embedColumns-column /embed of never-seen columns
}

// cycleOps is the length of one compaction cycle of the write stream.
func (s sizes) cycleOps() int { return 4 * s.compactEvery }

var workloads = []workload{
	{
		name: "offline_fit",
		why:  "paper-shaped GDS corpus, 3-restart fit ×3: gmm and core carry the run, so EM changes show here beside type_precision",
		gds:  true, shards: 1, restarts: 3,
		fits: 3, setups: 2, rounds: 3, embedPasses: 3, searchSlices: 3, batchSlices: 2, coldSlices: 2, embedSlices: 2,
	},
	{
		name:    "serve_hot_large",
		why:     "8192-column catalog, hot phases get most slices: ann, shard and HTTP/JSON dominate a cache hit and core's embed is bypassed",
		columns: 8192, shards: 1, restarts: 1,
		fits: 3, setups: 2, rounds: 3, embedPasses: 1, searchSlices: 6, batchSlices: 4, coldSlices: 2, embedSlices: 2,
	},
	{
		name:    "serve_cold_small",
		why:     "2048-column catalog, never-seen 1000-value columns get most slices: signatures and the micro-batcher dominate, ann is a few percent",
		columns: 2048, shards: 1, restarts: 1,
		fits: 3, setups: 2, rounds: 3, embedPasses: 1, searchSlices: 3, batchSlices: 2, coldSlices: 6, embedSlices: 5,
	},
	{
		name:    "serve_mixed_durable",
		why:     "two sharded on-disk stores, 6 compaction cycles beside an open-loop reader and 6 restarts: journal, shard routing, HNSW insert/tombstone/rebuild, stalls",
		columns: 4096, shards: 2, restarts: 1,
		fits: 3, setups: 2, rounds: 6, embedPasses: 1, searchSlices: 2, batchSlices: 2, coldSlices: 1, embedSlices: 1,
	},
}

// tiny shrinks a workload to the smoke test's scale: same phases, same
// metric names, seconds instead of half a minute.
func (w workload) tiny() workload {
	if !w.gds {
		w.columns /= 16
	}
	w.restarts = 1
	w.fits, w.setups, w.rounds = 1, 1, 1
	w.embedPasses, w.searchSlices, w.batchSlices, w.coldSlices, w.embedSlices = 1, 1, 1, 1, 1
	return w
}

// traced halves the measurement to make room for the ladder; the traced
// run's end-to-end values feed per-layer metrics only.
func (w workload) traced() workload {
	w.fits, w.setups, w.rounds = 1, 1, (w.rounds+1)/2
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
