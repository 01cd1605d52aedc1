package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/cluster"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/proto"
)

func init() {
	register(Experiment{
		ID:    "cpha",
		Title: "Highly-available control plane: Raft log replication cost, follower-read offload, and leader-kill failover (paper §5.4)",
		Run:   runCPHA,
	})
}

// cphaRow is one measured configuration of the CP tier sweep.
type cphaRow struct {
	Replicas      int     `json:"replicas"`
	FollowerReads bool    `json:"follower_reads"`
	LeaderKill    bool    `json:"leader_kill"`
	Writes        int     `json:"writes"`
	WriteP50Ms    float64 `json:"write_p50_ms"`
	WriteP99Ms    float64 `json:"write_p99_ms"`
	Reads         int     `json:"reads"`
	ReadP50Ms     float64 `json:"read_p50_ms"`
	ReadP99Ms     float64 `json:"read_p99_ms"`
	ReadErrors    int     `json:"read_errors"`
	// LeaderReadShare is the fraction of read RPCs the leader had to serve
	// itself — the offload headline (1.0 leader-only, →1/N with follower
	// reads across N replicas).
	ReadsLeader     int64   `json:"reads_leader_served"`
	ReadsFollower   int64   `json:"reads_follower_served"`
	LeaderReadShare float64 `json:"leader_read_share"`
	// FailoverMs is the time from the leader kill to the first write
	// accepted by the new leader (0 for no-kill rows).
	FailoverMs float64 `json:"failover_ms"`
	// Lost counts acknowledged registrations missing from the final
	// leader's function list — must be zero (quorum-committed writes
	// survive the kill).
	Lost int `json:"lost"`
	// Replication wire telemetry: AppendEntries rounds carrying entries,
	// entries shipped, and the mean wire batch (group commit on the wire).
	ReplRounds    uint64  `json:"repl_rounds"`
	ReplEntries   uint64  `json:"repl_entries"`
	ReplMeanBatch float64 `json:"repl_mean_batch"`
}

// runCPHA sweeps the CP tier through {1, 3} replicas × {leader-only,
// follower-reads} × {steady, leader kill mid-burst}, driving concurrent
// durable writes (function registrations through the replicated log) and
// read-only RPCs (ListFunctions through cpclient.CallRead) against a live
// cluster. Self-checking: every acknowledged write must survive — a
// leader kill mid-burst loses zero accepted registrations — and follower
// reads must measurably offload the leader.
func runCPHA(w io.Writer, scale float64) error {
	configs := []struct {
		replicas int
		fr       bool
		kill     bool
	}{
		{1, false, false},
		{3, false, false},
		{3, true, false},
		{3, false, true},
		{3, true, true},
	}
	var rows []cphaRow
	for _, c := range configs {
		row, err := cphaRun(c.replicas, c.fr, c.kill, scale)
		if err != nil {
			return fmt.Errorf("cpha replicas=%d fr=%v kill=%v: %w", c.replicas, c.fr, c.kill, err)
		}
		rows = append(rows, row)
	}

	t := newTable("replicas", "follower_reads", "leader_kill", "writes", "wr_p50_ms", "wr_p99_ms",
		"reads", "rd_p50_ms", "rd_p99_ms", "leader_share", "failover_ms", "lost", "mean_batch")
	for _, r := range rows {
		t.addRow(r.Replicas, fmt.Sprintf("%v", r.FollowerReads), fmt.Sprintf("%v", r.LeaderKill),
			r.Writes, r.WriteP50Ms, r.WriteP99Ms, r.Reads, r.ReadP50Ms, r.ReadP99Ms,
			fmt.Sprintf("%.2f", r.LeaderReadShare), r.FailoverMs, r.Lost, fmt.Sprintf("%.1f", r.ReplMeanBatch))
	}
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: 3-replica writes pay one quorum round trip over the 1-replica")
	fmt.Fprintln(w, "# baseline, amortized by wire group commit (mean_batch > 1 under concurrency);")
	fmt.Fprintln(w, "# follower reads drop the leader's read share from 1.0 toward 1/3; a leader kill")
	fmt.Fprintln(w, "# mid-burst stalls writes for one election (failover_ms) and loses zero")
	fmt.Fprintln(w, "# acknowledged registrations (lost=0): the new leader serves from its applied log.")

	for _, r := range rows {
		if r.Lost > 0 {
			return fmt.Errorf("cpha: %d acknowledged writes lost (replicas=%d kill=%v)", r.Lost, r.Replicas, r.LeaderKill)
		}
		if r.FollowerReads && r.ReadsFollower == 0 {
			return fmt.Errorf("cpha: follower reads enabled but zero reads served by followers")
		}
		if !r.FollowerReads && r.ReadsFollower != 0 {
			return fmt.Errorf("cpha: follower reads disabled but %d reads served by followers", r.ReadsFollower)
		}
		if r.Replicas > 1 && r.ReplEntries == 0 {
			return fmt.Errorf("cpha: no entries replicated with %d replicas", r.Replicas)
		}
	}

	if scale < 1 {
		return nil
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if werr := os.WriteFile("BENCH_cpha.json", append(data, '\n'), 0o644); werr != nil {
		fmt.Fprintf(w, "# warning: BENCH_cpha.json not written: %v\n", werr)
	} else {
		fmt.Fprintln(w, "# wrote BENCH_cpha.json")
	}
	return nil
}

// leaderFunctionList reads the function list from the replica that leads,
// addressed directly. Through the client it can come from a follower: Call
// starts at the replica that answered last, and with follower reads on a
// follower inside its read lease answers ListFunctions from its applied
// store, which by design may trail the writes acknowledged during the
// last lease period — stale, not lost.
func leaderFunctionList(cl *cluster.Cluster, timeout time.Duration) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	for {
		if cp := cl.Leader(); cp != nil {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			resp, err := cl.Transport.Call(ctx, cp.Addr(), proto.MethodListFunctions, nil)
			cancel()
			// Still leading after the call: the leader path served it.
			if err == nil && cp.IsLeader() {
				return resp, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no leader answered within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cphaRun measures one CP tier configuration.
func cphaRun(replicas int, followerReads, kill bool, scale float64) (cphaRow, error) {
	row := cphaRow{Replicas: replicas, FollowerReads: followerReads, LeaderKill: kill}
	cl, err := cluster.New(cluster.Options{
		ControlPlanes:   replicas,
		DataPlanes:      2,
		Workers:         2,
		CPFollowerReads: followerReads,
	})
	if err != nil {
		return row, err
	}
	defer cl.Shutdown()

	addrs := make([]string, replicas)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("cp%d:7000", i)
	}
	client := cpclient.New(cl.Transport, addrs)
	// A follower refusal (lease expired mid-burst) shouldn't pin reads to
	// the leader for the default 1 s — that would drown the offload signal.
	client.ReadCooldown = 5 * time.Millisecond

	const writers = 4
	perWriter := scaleInt(60, scale, 12)
	readers := 4
	if replicas == 1 {
		readers = 2
	}

	var (
		mu         sync.Mutex
		accepted   []string
		writeLatMs []float64
		readLatMs  []float64
		readErrs   int
		done       atomic.Int64
	)
	total := writers * perWriter
	readStop := make(chan struct{})
	var wg, rg sync.WaitGroup

	// Readers hammer the read path for the whole write burst; with
	// follower reads on, cpclient round-robins them across non-leader
	// replicas.
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-readStop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				t0 := time.Now()
				_, err := client.CallRead(ctx, proto.MethodListFunctions, nil)
				cancel()
				mu.Lock()
				if err != nil {
					readErrs++
				} else {
					readLatMs = append(readLatMs, float64(time.Since(t0))/float64(time.Millisecond))
				}
				mu.Unlock()
			}
		}()
	}

	// Writers push durable registrations through the replicated log;
	// CallWithRetry rides out the election when the kill row decapitates
	// the tier mid-burst.
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				fn := core.Function{
					Name:    fmt.Sprintf("cpha-w%d-%d", wi, j),
					Image:   "registry.local/cpha",
					Port:    8080,
					Runtime: "containerd",
					Scaling: core.DefaultScalingConfig(),
				}
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				t0 := time.Now()
				_, err := client.CallWithRetry(ctx, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
				cancel()
				if err != nil {
					done.Add(1)
					continue
				}
				mu.Lock()
				accepted = append(accepted, fn.Name)
				writeLatMs = append(writeLatMs, float64(time.Since(t0))/float64(time.Millisecond))
				mu.Unlock()
				done.Add(1)
			}
		}(wi)
	}

	// The kill row decapitates the tier once half the writes are in.
	var failover time.Duration
	if kill {
		for done.Load() < int64(total/2) {
			time.Sleep(time.Millisecond)
		}
		cl.KillCPLeader()
		t0 := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		probe := core.Function{
			Name: "cpha-failover-probe", Image: "registry.local/cpha", Port: 8080,
			Runtime: "containerd", Scaling: core.DefaultScalingConfig(),
		}
		_, perr := client.CallWithRetry(ctx, proto.MethodRegisterFunction, core.MarshalFunction(&probe))
		cancel()
		if perr != nil {
			return row, fmt.Errorf("no leader accepted writes after kill: %w", perr)
		}
		failover = time.Since(t0)
	}

	wg.Wait()
	close(readStop)
	rg.Wait()

	// Verify every acknowledged registration against the surviving
	// leader's function list — the zero-loss claim.
	respB, err := leaderFunctionList(cl, 15*time.Second)
	if err != nil {
		return row, fmt.Errorf("final function list: %w", err)
	}
	list, err := proto.UnmarshalFunctionList(respB)
	if err != nil {
		return row, err
	}
	have := make(map[string]bool, len(list.Functions))
	for i := range list.Functions {
		have[list.Functions[i].Name] = true
	}
	for _, name := range accepted {
		if !have[name] {
			row.Lost++
		}
	}

	row.Writes = len(writeLatMs)
	row.WriteP50Ms = percentile(writeLatMs, 0.50)
	row.WriteP99Ms = percentile(writeLatMs, 0.99)
	row.Reads = len(readLatMs)
	row.ReadP50Ms = percentile(readLatMs, 0.50)
	row.ReadP99Ms = percentile(readLatMs, 0.99)
	row.ReadErrors = readErrs
	row.FailoverMs = float64(failover) / float64(time.Millisecond)
	// The read counters live in the shared cluster registry, so they
	// aggregate across replicas — exactly the tier-wide split we want.
	row.ReadsLeader = cl.Metrics.Counter("cp_read_leader_served").Value()
	row.ReadsFollower = cl.Metrics.Counter("cp_read_follower_served").Value()
	if tot := row.ReadsLeader + row.ReadsFollower; tot > 0 {
		row.LeaderReadShare = float64(row.ReadsLeader) / float64(tot)
	}
	// Each node's counters cover its own leadership stints; summing over
	// all replicas (the killed one included — its counters outlive Stop)
	// totals the wire rounds regardless of who leads at sample time.
	for _, cp := range cl.CPs {
		rounds, entries := cp.ReplStats()
		row.ReplRounds += rounds
		row.ReplEntries += entries
	}
	if row.ReplRounds > 0 {
		row.ReplMeanBatch = float64(row.ReplEntries) / float64(row.ReplRounds)
	}
	return row, nil
}

// percentile returns the p-quantile of the samples (0 for an empty set).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(p * float64(len(s)-1))
	return s[idx]
}
