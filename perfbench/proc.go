package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/sharon-project/sharon/internal/metrics"
)

// proc is one running sharond process.
type proc struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	role string        // "single", "worker" or "router"
	done chan struct{} // closed once the process has been waited for
}

// deployment is the server side of one phase: one sharond, or a router
// in front of its workers. front is the process clients talk to.
type deployment struct {
	procs []*proc
	front *proc
	dir   string // scratch directory for data dirs and logs
	cpus  string // taskset CPU list for server processes ("" = unpinned)
}

// startDeployment spawns the workload's server processes and returns
// once the front answers /healthz with 200. Workers start first and
// must be healthy before the router, which checks their workloads.
func startDeployment(wl *workload, sharond, cpus, scratch string) (*deployment, error) {
	dir, err := os.MkdirTemp(scratch, "phase-")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, cpus: cpus}
	qargs := make([]string, 0, 2*len(wl.queries))
	for _, q := range wl.queries {
		qargs = append(qargs, "-query", q)
	}
	if wl.workers == 0 {
		args := append([]string(nil), qargs...)
		if wl.wal {
			args = append(args, "-data-dir", filepath.Join(dir, "data"), "-fsync", "interval")
		}
		if wl.adaptive {
			args = append(args, "-adaptive")
		}
		p, err := d.spawn(sharond, "single", args)
		if err != nil {
			d.stop()
			return nil, err
		}
		if err := waitHealthy(p); err != nil {
			d.stop()
			return nil, err
		}
		d.front = p
		return d, nil
	}
	var workerArgs []string
	for i := 0; i < wl.workers; i++ {
		p, err := d.spawn(sharond, "worker", append([]string{"-role", "worker"}, qargs...))
		if err != nil {
			d.stop()
			return nil, err
		}
		workerArgs = append(workerArgs, "-worker", p.base)
	}
	for _, p := range d.procs {
		if err := waitHealthy(p); err != nil {
			d.stop()
			return nil, err
		}
	}
	args := append(append([]string{"-role", "router"}, workerArgs...), qargs...)
	p, err := d.spawn(sharond, "router", args)
	if err != nil {
		d.stop()
		return nil, err
	}
	if err := waitHealthy(p); err != nil {
		d.stop()
		return nil, err
	}
	d.front = p
	return d, nil
}

func (d *deployment) spawn(bin, role string, args []string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(d.dir, fmt.Sprintf("%s-%d.log", role, port)))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args = append([]string{"-addr", addr}, args...)
	cmd := exec.Command(bin, args...)
	if d.cpus != "" {
		// Keep the servers off the generator's CPU, so the two contend
		// only through the network, as on separate machines.
		cmd = exec.Command("taskset", append([]string{"-c", d.cpus, bin}, args...)...)
	}
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed from outside must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sharond: %w", err)
	}
	p := &proc{cmd: cmd, base: "http://" + addr, role: role, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	d.procs = append(d.procs, p)
	return p, nil
}

// stop kills every process, waits for each to end, and removes the
// phase's scratch directory.
func (d *deployment) stop() {
	for _, p := range d.procs {
		_ = p.cmd.Process.Signal(syscall.SIGKILL)
	}
	for _, p := range d.procs {
		<-p.done
	}
	d.procs = nil
	_ = os.RemoveAll(d.dir)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers 200, the process dies,
// or a minute passes.
func waitHealthy(p *proc) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if resp, err := client.Get(p.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("sharond %s exited during start-up", p.role)
		case <-time.After(500 * time.Microsecond):
		}
	}
	return fmt.Errorf("sharond %s not healthy after 1m", p.role)
}

// getJSON decodes one GET response.
func getJSON(url string, v any) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape is what one phase reads from the servers' /metrics.
type scrape struct {
	server *metrics.ServerStats // single node (nil for a cluster)
	router *metrics.RouterStats // cluster front (nil for a single node)
}

func (d *deployment) scrape() (scrape, error) {
	var s scrape
	if d.front.role == "router" {
		s.router = &metrics.RouterStats{}
		return s, getJSON(d.front.base+"/metrics", s.router)
	}
	s.server = &metrics.ServerStats{}
	return s, getJSON(d.front.base+"/metrics", s.server)
}

// cpuSeconds sums the time a process's threads have run on a CPU, from
// /proc/<pid>/task/*/schedstat, in nanosecond resolution. With
// paravirtual steal accounting, time the hypervisor gave to other
// guests is not included.
func cpuSeconds(pid int) (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread has exited
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			n, _ := strconv.ParseInt(f[0], 10, 64)
			ns += n
		}
	}
	return float64(ns) / 1e9, nil
}

// cpuByRole sums CPU seconds over the deployment's processes of role
// ("" = all).
func (d *deployment) cpuByRole(role string) float64 {
	var sum float64
	for _, p := range d.procs {
		if role == "" || p.role == role {
			if v, err := cpuSeconds(p.cmd.Process.Pid); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// peakRSSMB sums VmHWM over the deployment's processes, in MB.
func (d *deployment) peakRSSMB() float64 {
	var kb float64
	for _, p := range d.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(v)
				if len(f) > 0 {
					n, _ := strconv.ParseFloat(f[0], 64)
					kb += n
				}
			}
		}
	}
	return kb / 1024
}
