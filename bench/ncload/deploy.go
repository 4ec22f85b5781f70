package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// deployment is the system under test: one ncserver, or an ncrouter in
// front of two ncserver shard leaders. Every server owns a data
// directory, so a deployment can be stopped and started again on what
// it saved.
type deployment struct {
	binDir string
	logDir string
	name   string   // workload name, prefixes the log files
	dirs   []string // one data directory per server
	shards int      // 0: a single unsharded server

	servers []*proc
	router  *proc

	probe []byte // a query body every ready deployment must answer
}

func newDeployment(name, binDir, runDir, logDir string, shards int, probe []byte) (*deployment, error) {
	d := &deployment{binDir: binDir, logDir: logDir, name: name, shards: shards, probe: probe}
	n := max(1, shards)
	for i := 0; i < n; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("data%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		d.dirs = append(d.dirs, dir)
	}
	return d, nil
}

func (d *deployment) logPath(proc string) string {
	return filepath.Join(d.logDir, d.name+"-"+proc+".log")
}

// start boots every process and returns how long the deployment took
// from the first spawn until its front door answered /healthz, then
// checks it is really serving with one probe query.
func (d *deployment) start() (time.Duration, error) {
	t0 := time.Now()
	bin := filepath.Join(d.binDir, "ncserver")
	for i, dir := range d.dirs {
		args := []string{"-scale", "default", "-seed", fmt.Sprint(worldSeed), "-max-segments", fmt.Sprint(maxSegments),
			"-ingest", "-data-dir", dir}
		if d.shards > 0 {
			args = append(args, "-role", "leader", "-shard", fmt.Sprintf("%d/%d", i, d.shards))
		}
		p, err := spawn(fmt.Sprintf("ncserver%d", i), bin, d.logPath(fmt.Sprintf("server%d", i)), args...)
		if err != nil {
			return 0, err
		}
		d.servers = append(d.servers, p)
	}
	for _, p := range d.servers {
		if err := p.waitHealthy(60 * time.Second); err != nil {
			return 0, err
		}
	}
	if d.shards > 0 {
		var args []string
		for _, p := range d.servers {
			args = append(args, "-shard", p.url)
		}
		p, err := spawn("ncrouter", filepath.Join(d.binDir, "ncrouter"), d.logPath("router"), args...)
		if err != nil {
			return 0, err
		}
		d.router = p
		if err := p.waitHealthy(60 * time.Second); err != nil {
			return 0, err
		}
	}
	ready := time.Since(t0)
	if err := d.barrier(); err != nil {
		return 0, fmt.Errorf("after boot: %w", err)
	}
	return ready, nil
}

// stop ends every process with sig, the router first so no query is in
// flight when a shard goes. After it returns no child is left.
func (d *deployment) stop(sig syscall.Signal) error {
	var first error
	for _, p := range d.procs() {
		if err := p.stop(sig); err != nil && first == nil {
			first = err
		}
	}
	d.servers, d.router = nil, nil
	return first
}

// procs lists the live processes, router first.
func (d *deployment) procs() []*proc {
	var ps []*proc
	if d.router != nil {
		ps = append(ps, d.router)
	}
	return append(ps, d.servers...)
}

// queryURL is where read requests go.
func (d *deployment) queryURL() string {
	if d.router != nil {
		return d.router.url
	}
	return d.servers[0].url
}

// barrier makes every shard's view of the others current: a query
// through the router finds the shards at different generations,
// which makes the router exchange term statistics before it answers.
// On a single server it is just a query.
func (d *deployment) barrier() error {
	status, body, err := post(probeClient, d.queryURL()+"/v2/query/rollup", d.probe)
	if err != nil || status != 200 {
		return fmt.Errorf("probe query: status %d, err %v: %.200s", status, err, body)
	}
	return nil
}

// maxSegments is the servers' merge-policy bound (-max-segments).
const maxSegments = 4

// settle waits until server i's background merge has brought its
// segment count back within the policy bound.
func (d *deployment) settle(i int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st statsz
		if err := getJSON(d.servers[i].url+"/statsz", &st); err != nil {
			return err
		}
		if len(st.Index.Segments) <= maxSegments {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %d still has %d segments after 30s", i, len(st.Index.Segments))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// serverStats reads every server's /statsz.
func (d *deployment) serverStats() ([]statsz, error) {
	out := make([]statsz, len(d.servers))
	for i, p := range d.servers {
		if err := getJSON(p.url+"/statsz", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// articles is the deployment's corpus size: the sum over its servers.
func (d *deployment) articles() (int, error) {
	sts, err := d.serverStats()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, st := range sts {
		n += st.Index.Articles
	}
	return n, nil
}

// sumProcs adds up a per-process reading over all live processes.
func (d *deployment) sumProcs(read func(pid int) (float64, error)) (float64, error) {
	total := 0.0
	for _, p := range d.procs() {
		v, err := read(p.pid())
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// rssPeakMB sums the peak resident sets of all live processes.
func (d *deployment) rssPeakMB() (float64, error) { return d.sumProcs(vmHWM) }

// cpuSeconds sums the CPU time of all live processes.
func (d *deployment) cpuSeconds() (float64, error) { return d.sumProcs(cpuSeconds) }

// diskBytes sums the data directories.
func (d *deployment) diskBytes() (int64, error) {
	var total int64
	for _, dir := range d.dirs {
		n, err := dirBytes(dir)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
