package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child server process on an ephemeral loopback port.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed once Wait returned
}

// children tracks every live child so any failure path can tear all of
// them down.
var children struct {
	sync.Mutex
	live map[*proc]bool
}

// freeAddr reserves an ephemeral loopback port by binding and releasing
// it. Another process could take it before the child binds; the child
// would then fail to start and the run fails loudly rather than wrongly.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts bin with args plus "-addr <ephemeral>", its output
// captured to logPath (appended, so restarts share one file).
func spawn(name, bin, logPath string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, url: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	children.Lock()
	if children.live == nil {
		children.live = make(map[*proc]bool)
	}
	children.live[p] = true
	children.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop signals the process and waits for it to exit; a SIGTERM that is
// not honoured within the grace period escalates to SIGKILL and is
// reported.
func (p *proc) stop(sig syscall.Signal) error {
	defer func() {
		p.log.Close()
		children.Lock()
		delete(children.live, p)
		children.Unlock()
	}()
	select {
	case <-p.done:
		return fmt.Errorf("%s exited on its own: %v", p.name, p.cmd.ProcessState)
	default:
	}
	p.cmd.Process.Signal(sig)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s ignored signal %v for 20s; killed", p.name, sig)
	}
	if sig == syscall.SIGTERM && !p.cmd.ProcessState.Success() {
		return fmt.Errorf("%s: unclean shutdown: %v", p.name, p.cmd.ProcessState)
	}
	return nil
}

// killAllChildren is the last-resort teardown for failure paths.
func killAllChildren() {
	children.Lock()
	var ps []*proc
	for p := range children.live {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		p.stop(syscall.SIGKILL)
	}
}

var probeClient = &http.Client{Timeout: 10 * time.Second}

// waitHealthy polls GET /healthz until it answers 200, the process
// dies, or the deadline passes.
func (p *proc) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := probeClient.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy (see %s)", p.name, p.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s", p.name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getJSON decodes a GET response into out.
func getJSON(url string, out any) error {
	resp, err := probeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// post sends one JSON body and returns status and response body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// statsz is the part of an ncserver /statsz answer the benchmark reads.
type statsz struct {
	Index struct {
		Articles int   `json:"articles"`
		Segments []int `json:"segments"`
		Watch    struct {
			AlertsFired int64 `json:"alerts_fired"`
		} `json:"watch"`
	} `json:"index"`
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
}

// vmHWM is the process's peak resident set in MiB, from
// /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 100

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (utime + stime) / clockTick, nil
}

// selfCPUSeconds is this process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of a flat directory (a snapshot
// directory has no subdirectories).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
