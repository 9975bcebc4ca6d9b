package load

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/profile"
)

// The horizontal-scaling bench: write throughput of a 4-node cluster vs a
// single node, with every node process pinned to the same CPU quota so the
// comparison measures partitioning, not the host's core count. Runs only
// when CLUSTER_BENCH_OUT names the artifact to write (it spawns real
// pmware-cloud processes and takes ~1min).
//
// Per-node quota is enforced with a SIGSTOP/SIGCONT governor, which needs
// no cgroup privileges and works on any host including single-core CI
// containers. Each node banks CPU allowance at 1/16 of wall time; every
// 32ms round the governor thaws all funded nodes together (peers must
// overlap or semi-sync acks stall), polls their consumed nanoseconds via
// /proc schedstat, and refreezes the burst as soon as the first node
// drains its bank — charging each node for what it actually burned, so
// late signal delivery self-corrects as debt. A slow integral loop trims
// each node's accrual rate until its cumulative utime+stime share — the
// metric both configs are compared on — sits exactly on the 1/16-core
// target. The deliberately small quota leaves the load-generating test
// process enough CPU to saturate four nodes at once; capping nodes near
// the core's capacity would starve the clients and measure contention,
// not scaling.

const (
	benchSlotMS = 2
	benchSlots  = 16
)

type cappedNode struct {
	cmd *exec.Cmd
	url string
}

func startCappedNode(t *testing.T, bin string, port int, clusterSpec, nodeID string) *cappedNode {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr, "-fsync", "never"}
	if clusterSpec != "" {
		// A longer linger than the 2ms default: under the CPU quota a node
		// runs in widely spaced bursts, so holding partial batches a little
		// longer coalesces far more records per replication POST without
		// adding meaningful ack latency at bench pipeline depth.
		args = append(args, "-cluster", clusterSpec, "-node-id", nodeID, "-ship-linger", "8ms")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start node %s: %v", nodeID, err)
	}
	n := &cappedNode{cmd: cmd, url: "http://" + addr}
	t.Cleanup(func() { n.kill() })

	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(n.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s on %s never became healthy", nodeID, addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return n
}

func (n *cappedNode) kill() {
	if n.cmd.Process != nil {
		_ = n.cmd.Process.Signal(syscall.SIGCONT)
		_ = n.cmd.Process.Signal(syscall.SIGTERM)
		_ = n.cmd.Wait()
		n.cmd.Process = nil
	}
}

// nodeCPUSeconds reads the process's consumed CPU (utime+stime) so runs can
// report how much core each node actually got under the quota.
func nodeCPUSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 15 {
		return 0
	}
	utime, _ := strconv.ParseFloat(fields[13], 64)
	stime, _ := strconv.ParseFloat(fields[14], 64)
	return (utime + stime) / 100 // USER_HZ
}

// nodeCPUNanos sums sum_exec_runtime (ns) across the process's threads from
// /proc/<pid>/task/*/schedstat. Unlike utime+stime (10ms USER_HZ ticks) it
// has nanosecond resolution, which the quota governor needs to meter out
// ~1ms CPU grants.
func nodeCPUNanos(pid int) float64 {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0
	}
	total := 0.0
	for _, task := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, task.Name()))
		if err != nil {
			continue
		}
		fields := strings.Fields(string(data))
		if len(fields) < 1 {
			continue
		}
		v, _ := strconv.ParseFloat(fields[0], 64)
		total += v
	}
	return total
}

// startQuotaScheduler freezes every node and meters out its CPU by
// consumption, not wall clock: each node banks allowance at 1/benchSlots of
// real time, gets thawed when the bank is positive, and is charged for the
// CPU nanoseconds it actually burned (measured via schedstat) when it is
// frozen again. Charging actual consumption makes the delivered share
// converge on the target regardless of signal latency or scheduler
// contention — a node that overruns its grant because SIGSTOP landed late
// goes into debt and sits out following rounds. A node that is awake but
// blocked (e.g. a primary waiting on a frozen follower's ack) burns ~no CPU
// and keeps its allowance. Returns a stop func that thaws everyone.
func startQuotaScheduler(nodes []*cappedNode) (stop func()) {
	const (
		target   = 1.0 / benchSlots
		round    = benchSlots * benchSlotMS * time.Millisecond
		slotCap  = 12 * time.Millisecond // wall bound per burst, even if no CPU burned
		minGrant = float64(2 * time.Millisecond)
		maxBank  = float64(8 * time.Millisecond)
	)
	stopCh := make(chan struct{})
	var done sync.WaitGroup
	pids := make([]int, len(nodes))
	for i, n := range nodes {
		pids[i] = n.cmd.Process.Pid
		_ = syscall.Kill(pids[i], syscall.SIGSTOP)
	}
	done.Add(1)
	go func() {
		defer done.Done()
		allowance := make([]float64, len(pids)) // CPU ns each node may burn
		// schedstat misses CPU the kernel burns on the node's behalf
		// (softirq network work lands in stime but not sum_exec_runtime),
		// so a slow outer loop trims each node's accrual rate until the
		// utime+stime share — the metric both bench configs are compared
		// on — sits at the target.
		effTarget := make([]float64, len(pids))
		tickBase := make([]float64, len(pids))
		for i, pid := range pids {
			effTarget[i] = target
			tickBase[i] = nodeCPUSeconds(pid)
		}
		started := time.Now()
		lastTrim := time.Now()
		lastAccrue := time.Now()
		for {
			select {
			case <-stopCh:
				return
			default:
			}
			now := time.Now()
			accrued := float64(now.Sub(lastAccrue))
			lastAccrue = now
			for i := range allowance {
				if allowance[i] += effTarget[i] * accrued; allowance[i] > maxBank {
					allowance[i] = maxBank
				}
			}
			if time.Since(lastTrim).Seconds() >= 0.5 {
				// Integral control: aim the *cumulative* utime+stime share at
				// the target, repaying any accumulated error over the next
				// second. A node that ran hot early (signal latency, schedstat
				// undercounting kernel work) accrues slower until the running
				// total is back on the line, so the share measured over any
				// later window converges on the target exactly.
				elapsed := time.Since(started).Seconds()
				for i, pid := range pids {
					consumed := nodeCPUSeconds(pid) - tickBase[i]
					short := target*elapsed - consumed // CPU-seconds owed
					eff := target + short
					if eff < 0.2*target {
						eff = 0.2 * target
					} else if eff > 2.5*target {
						eff = 2.5 * target
					}
					effTarget[i] = eff
				}
				lastTrim = time.Now()
			}
			// Thaw every node with a funded bank at once — peers must be
			// awake together or semi-sync acks stall the whole burst — and
			// freeze each one individually as it exhausts its allowance.
			awake := make([]bool, len(pids))
			base := make([]float64, len(pids))
			any := false
			for i, pid := range pids {
				if allowance[i] < minGrant {
					continue
				}
				base[i] = nodeCPUNanos(pid)
				awake[i] = true
				any = true
				_ = syscall.Kill(pid, syscall.SIGCONT)
			}
			if any {
				// The burst ends for everyone as soon as one node drains its
				// bank (or the wall cap trips): a node left awake alone burns
				// CPU spinning against frozen peers, which is charged but
				// produces nothing. Residual allowances carry to later rounds.
				slotStart := time.Now()
				for time.Since(slotStart) < slotCap {
					drained := false
					for i, pid := range pids {
						if awake[i] && nodeCPUNanos(pid)-base[i] >= allowance[i] {
							drained = true
						}
					}
					if drained {
						break
					}
					time.Sleep(200 * time.Microsecond)
				}
				for i, pid := range pids {
					if !awake[i] {
						continue
					}
					_ = syscall.Kill(pid, syscall.SIGSTOP)
					allowance[i] -= nodeCPUNanos(pid) - base[i]
				}
			}
			if rest := round - time.Since(now); rest > 0 {
				time.Sleep(rest)
			}
		}
	}()
	return func() {
		close(stopCh)
		done.Wait()
		for _, pid := range pids {
			_ = syscall.Kill(pid, syscall.SIGCONT)
		}
	}
}

// measureWriteThroughput drives profile upserts from `workers` concurrent
// clients. Writers run through a warmup (which lets the quota feedback loop
// converge and the stores absorb cold-start costs) before the measured
// window opens; returns completed writes per second over the window alone,
// plus the node CPU-seconds the given pids consumed during it.
func measureWriteThroughput(t *testing.T, targets []string, workers int, warmup, window time.Duration, pids []int) (float64, uint64, float64) {
	t.Helper()
	clients := make([]*cloud.Client, workers)
	for i := range clients {
		imei := fmt.Sprintf("bench-imei-%03d", i)
		email := fmt.Sprintf("bench-%d@example.com", i)
		opts := []cloud.ClientOption{
			cloud.WithRetryPolicy(cloud.RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, PerTryTimeout: 30 * time.Second}),
		}
		if len(targets) > 1 {
			opts = append(opts, cloud.WithCluster(targets))
		}
		c := cloud.NewClient(targets[i%len(targets)], imei, email,
			&http.Client{Timeout: 30 * time.Second}, opts...)
		if err := c.Register(); err != nil {
			t.Fatalf("register bench client %d: %v", i, err)
		}
		clients[i] = c
	}

	var writes atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *cloud.Client) {
			defer wg.Done()
			uid := c.UserID()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				date := fmt.Sprintf("2014-07-%02d", 1+(n%28))
				day, _ := time.Parse("2006-01-02", date)
				p := &profile.DayProfile{
					UserID: uid,
					Date:   date,
					Places: []profile.PlaceVisit{{
						PlaceID: fmt.Sprintf("place-%d", n%5),
						Arrive:  day.Add(8 * time.Hour),
						Depart:  day.Add(18 * time.Hour),
					}},
				}
				if err := c.SyncProfile(p); err == nil {
					writes.Add(1)
				}
			}
		}(i, c)
	}
	time.Sleep(warmup)
	cpuBase := 0.0
	for _, pid := range pids {
		cpuBase += nodeCPUSeconds(pid)
	}
	writes.Store(0)
	start := time.Now()
	time.Sleep(window)
	w := writes.Load()
	elapsed := time.Since(start)
	cpuUsed := -cpuBase
	for _, pid := range pids {
		cpuUsed += nodeCPUSeconds(pid)
	}
	close(stop)
	wg.Wait()
	return float64(w) / elapsed.Seconds(), w, cpuUsed
}

// TestClusterBenchRecord measures 1-node vs 4-node write throughput under
// identical per-node CPU quotas and records BENCH_cluster.json. The ratio
// gate (>= 2.5x) fails the run if partitioning stops paying for the
// replication overhead it adds.
func TestClusterBenchRecord(t *testing.T) {
	out := os.Getenv("CLUSTER_BENCH_OUT")
	if out == "" {
		t.Skip("set CLUSTER_BENCH_OUT=<path> to run the cluster scaling bench")
	}

	bin := filepath.Join(t.TempDir(), "pmware-cloud")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/pmware-cloud")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build pmware-cloud: %v", err)
	}

	const (
		workers = 128
		warmup  = 6 * time.Second
		window  = 20 * time.Second
	)

	// Baseline: one node, same per-node quota, no cluster flags (so no
	// replication work — the single-node deployment it replaces).
	single := startCappedNode(t, bin, 19200, "", "")
	stopSched := startQuotaScheduler([]*cappedNode{single})
	singleRPS, singleWrites, singleCPU := measureWriteThroughput(t,
		[]string{single.url}, workers, warmup, window, []int{single.cmd.Process.Pid})
	stopSched()
	single.kill()
	t.Logf("1 node:  %.1f writes/s (%d writes, %.2f node CPU-sec, %.1f%% of core)",
		singleRPS, singleWrites, singleCPU, 100*singleCPU/window.Seconds())

	// 4-node ring: every write lands on its ring owner and replicates
	// semi-synchronously to the next node.
	ports := []int{19201, 19202, 19203, 19204}
	spec := ""
	var targets []string
	for i, p := range ports {
		if i > 0 {
			spec += ","
		}
		spec += fmt.Sprintf("m%d=http://127.0.0.1:%d", i, p)
		targets = append(targets, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	nodes := make([]*cappedNode, len(ports))
	for i, p := range ports {
		nodes[i] = startCappedNode(t, bin, p, spec, fmt.Sprintf("m%d", i))
	}
	stopSched = startQuotaScheduler(nodes)
	pids := make([]int, len(nodes))
	for i, n := range nodes {
		pids[i] = n.cmd.Process.Pid
	}
	clusterRPS, clusterWrites, clusterCPU := measureWriteThroughput(t, targets, workers, warmup, window, pids)
	stopSched()
	for _, n := range nodes {
		n.kill()
	}
	t.Logf("4 nodes: %.1f writes/s (%d writes, %.2f node CPU-sec total, %.1f%% of core)",
		clusterRPS, clusterWrites, clusterCPU, 100*clusterCPU/window.Seconds())

	ratio := clusterRPS / singleRPS
	t.Logf("scaling ratio: %.2fx", ratio)

	report := map[string]any{
		"schema":      1,
		"recorded_at": time.Now().UTC().Format(time.RFC3339),
		"host": map[string]any{
			"go_version": runtime.Version(),
			"os":         runtime.GOOS,
			"arch":       runtime.GOARCH,
			"cpus":       runtime.NumCPU(),
		},
		"methodology": map[string]any{
			"quota_mechanism": "SIGSTOP/SIGCONT consumption governor: nodes bank allowance at the quota rate, thaw together in joint bursts, and are charged actual schedstat nanoseconds; an integral loop trims accrual until the cumulative utime+stime share sits on the target",
			"slot_ms":         benchSlotMS,
			"slots":           benchSlots,
			"quota_fraction":  1.0 / float64(benchSlots),
			"workers":         workers,
			"warmup_sec":      warmup.Seconds(),
			"window_sec":      window.Seconds(),
			"write_op":        "profile upsert (PUT /api/v1/profiles/{date})",
			"note": "every node process, including the 1-node baseline, runs under the same 1/16-core quota; " +
				"consumption charging plus the utime+stime integral trim makes the delivered CPU share " +
				"identical in both configurations regardless of signal latency. The small quota leaves the " +
				"load generator CPU headroom on a single-core host, so the ratio measures horizontal " +
				"partitioning plus semi-sync replication overhead, not host core count. Cluster nodes run " +
				"with -ship-linger 8ms to coalesce replication batches across the bursty quota cadence",
		},
		"single_node": map[string]any{"writes_per_sec": singleRPS, "writes": singleWrites},
		"four_node":   map[string]any{"writes_per_sec": clusterRPS, "writes": clusterWrites},
		"ratio":       ratio,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)

	if ratio < 2.5 {
		t.Fatalf("4-node/1-node write throughput ratio %.2f below the 2.5x floor", ratio)
	}
}
