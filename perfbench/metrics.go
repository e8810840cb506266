package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract: BENCHMARK.json names exactly these, in
// this order (the self-test checks both ways).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 on every workload. What one "pass" is differs per workload;
// README.md defines it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the single-layer metrics of the traced run. Every workload
// reports every one; a layer the workload does not exercise reads 0 with
// 0 samples. The latencies of the ops users wait for are reported here
// rather than end to end: run to run they spread too widely to carry a
// bound (README.md).
var perLayer = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"experiments.exp_wall_s.sec3-lang", "s"},
	{"experiments.exp_wall_s.fig9a", "s"},
	{"experiments.exp_wall_s.fig9d", "s"},
	{"experiments.exp_wall_s.fig17", "s"},
	{"experiments.exp_wall_s.fig4", "s"},
	{"trainer.cases", "count"},
	{"trainer.sim_samples", "count"},
	{"trainer.host_ns_per_sim_sample", "ns"},
	{"trainer.case_host_s.dali-shuffle", "s"},
	{"trainer.case_host_s.coordl", "s"},
	{"trainer.epoch_host_s.cold", "s"},
	{"trainer.epoch_host_s.warm", "s"},
	{"sim.dispatch_ns_per_event", "ns"},
	{"dataset.epoch_order_ms", "ms"},
	{"dataset.item_bytes_ns", "ns"},
	{"pagecache.access_ns", "ns"},
	{"pagecache.hit_ratio", "ratio"},
	{"cache.minio_access_ns", "ns"},
	{"cache.minio_hit_ratio", "ratio"},
	{"server.accept_p50_ms", "ms"},
	{"server.case_mean_ms", "ms"},
	{"server.queue_wait_mean_ms", "ms"},
	{"server.rejected", "count"},
	{"server.query_p50_ms", "ms"},
	{"server.query_p99_ms", "ms"},
	{"server.max_rate_in_slo_per_s", "submits/s"},
	{"memo.hit_ratio", "ratio"},
	{"memo.lookup_mean_ms", "ms"},
	{"wal.appends_per_job", "count/job"},
	{"wal.fsync_mean_ms", "ms"},
	{"query.rows_per_query", "rows"},
	{"query.exec_ms", "ms"},
	{"events.published", "count"},
	{"events.dropped", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"coordinator.cases_dispatched", "count"},
	{"coordinator.retries", "count"},
	{"coordinator.worker_requests_per_case", "ratio"},
	{"coordinator.hop_overhead_ms_per_case", "ms"},
	{"coordinator.scatter_ratio", "ratio"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.goroutines_peak", "count"},
	{"runtime.allocs", "count"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.gc_cpu_s", "s"},
	{"obs.tracing_overhead_s", "s"},
}

// value is one measured metric: its value and how many samples it
// summarizes.
type value struct {
	v float64
	n int
}

// result is everything one run reports.
type result struct {
	workload          string
	vals              map[string]value
	attempted, failed int
	// problems lists failed operations and output-check mismatches.
	problems []string
	host     host
}

func newResult(workload string) *result {
	return &result{workload: workload, vals: map[string]value{}}
}

func (r *result) set(name string, v float64, n int) { r.vals[name] = value{v, n} }

// op records one attempted operation; a non-nil err counts it as failed.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// print writes the human-readable report — every metric with unit and
// sample count, the error rate and the host fingerprint — and then, as
// the last line, the JSON result object.
func (r *result) print(w io.Writer, trace bool) {
	list := endToEnd
	if trace {
		list = perLayer
	}
	fmt.Fprintf(w, "workload %s (%s)\n", r.workload, map[bool]string{false: "end-to-end", true: "per-layer"}[trace])
	for _, m := range list {
		v := r.vals[m.name]
		fmt.Fprintf(w, "  %-40s %14.6g %-10s n=%d\n", m.name, v.v, m.unit, v.n)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-40s %14.6g %-10s n=%d\n", "error_rate", rate, "ratio", r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	hb, _ := json.Marshal(r.host)
	fmt.Fprintf(w, "host %s\n", hb)

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range list {
		out.Metrics[m.name] = jsonMetric{r.vals[m.name].v, m.unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", b)
}

// host is the fingerprint recorded with every result: numbers are compared
// only between runs with the same fingerprint.
type host struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	WALFS      string `json:"wal_fs"`
}

func fingerprint(walDir string) host {
	name, _ := os.Hostname()
	return host{
		Host: name, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), WALFS: fsType(walDir),
	}
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	at         time.Time
	cpu        float64 // user+sys seconds
	allocs     uint64
	allocBytes uint64
	gcCPU      float64
	sched      []uint64 // /sched/latencies bucket counts
	bounds     []float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	u := usage{
		at:  time.Now(),
		cpu: tv(ru.Utime) + tv(ru.Stime),
	}
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		u.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		u.sched = append([]uint64(nil), h.Counts...)
		u.bounds = h.Buckets
	}
	return u
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// spent is the resource use between two snapshots.
type spent struct {
	wall, cpu, gcCPU   float64
	allocs, allocBytes uint64
	schedP99           float64 // seconds; upper bound of the p99 bucket
	schedN             uint64
}

func since(a usage) spent {
	b := readUsage()
	s := spent{
		wall: b.at.Sub(a.at).Seconds(), cpu: b.cpu - a.cpu, gcCPU: b.gcCPU - a.gcCPU,
		allocs: b.allocs - a.allocs, allocBytes: b.allocBytes - a.allocBytes,
	}
	if len(a.sched) == len(b.sched) && len(b.sched) > 0 {
		d := make([]uint64, len(b.sched))
		for i := range d {
			d[i] = b.sched[i] - a.sched[i]
			s.schedN += d[i]
		}
		target := uint64(math.Ceil(0.99 * float64(s.schedN)))
		var acc uint64
		for i, c := range d {
			acc += c
			if acc >= target && c > 0 {
				s.schedP99 = b.bounds[i+1]
				if math.IsInf(s.schedP99, 1) {
					s.schedP99 = b.bounds[i]
				}
				break
			}
		}
	}
	return s
}

// sampler polls resident memory and the goroutine count while a timed
// phase runs.
type sampler struct {
	stop       chan struct{}
	done       chan struct{}
	mu         sync.Mutex
	peakRSS    int64
	goroutines int
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	rss := residentBytes()
	g := runtime.NumGoroutine()
	s.mu.Lock()
	if rss > s.peakRSS {
		s.peakRSS = rss
	}
	if g > s.goroutines {
		s.goroutines = g
	}
	s.mu.Unlock()
}

// finish stops the sampler and returns the peak RSS in MiB and the peak
// goroutine count.
func (s *sampler) finish() (float64, int) {
	close(s.stop)
	<-s.done
	s.sample()
	return float64(s.peakRSS) / (1 << 20), s.goroutines
}

// residentBytes reads the process's resident set size from /proc.
func residentBytes() int64 {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return 0
	}
	defer f.Close()
	line, _ := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(fields[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// setRuntime records the runtime-layer metrics of a timed phase, per pass.
func (r *result) setRuntime(s spent, passes int, goroutines int) {
	p := float64(passes)
	r.set("runtime.allocs", float64(s.allocs)/p, passes)
	r.set("runtime.alloc_mib", float64(s.allocBytes)/(1<<20)/p, passes)
	r.set("runtime.gc_cpu_s", s.gcCPU/p, passes)
	r.set("runtime.sched_latency_p99_us", s.schedP99*1e6, int(s.schedN))
	r.set("runtime.goroutines_peak", float64(goroutines), 1)
}

// sameBytes is every output check: got must equal want byte for byte. On
// a mismatch the error names the first differing line.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Errorf("%s differs from its reference at line %d: got %.80q want %.80q", what, i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("%s differs from its reference: %d lines, want %d", what, len(gl), len(wl))
}

// corrupted returns b with one byte changed when the run's corrupt option
// names this check, so the self-test can show the check fails.
func (r *runner) corrupted(check string, b []byte) []byte {
	if r.o.corrupt != check || len(b) == 0 {
		return b
	}
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 0x01
	return c
}
