package shard

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Multi-process fleets use the self-exec pattern: a command that wants
// real worker processes re-executes its own binary with workerEnv set,
// and MaybeWorkerProcess (called first thing in main) hijacks those
// children into worker mode. Children announce their port on stdout and
// exit when their stdin closes, so a dying parent never leaks a fleet.
const (
	workerEnv     = "DEX_SHARD_WORKER"
	workerSeedEnv = "DEX_SHARD_SEED"
	readyPrefix   = "DEX_SHARD_READY "
)

// MaybeWorkerProcess turns the current process into a shard worker when
// the worker env var is set, and never returns in that case. Call it at
// the top of main in any command that spawns process fleets.
func MaybeWorkerProcess() {
	if os.Getenv(workerEnv) == "" {
		return
	}
	seed, _ := strconv.ParseInt(os.Getenv(workerSeedEnv), 10, 64)
	if err := runWorkerProcess(seed); err != nil {
		fmt.Fprintln(os.Stderr, "shard worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runWorkerProcess(seed int64) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w := NewWorker(seed)
	// The parent holds our stdin pipe open for our lifetime; EOF means it
	// is gone (or done with us) and we shut down.
	go func() {
		io.Copy(io.Discard, os.Stdin)
		w.Close()
	}()
	fmt.Printf("%s%s\n", readyPrefix, lis.Addr().String())
	w.Serve(lis)
	return nil
}

// ProcFleet is a fleet of real worker processes spawned from the current
// binary.
type ProcFleet struct {
	Addrs []string
	procs []*os.Process
	pipes []io.WriteCloser
}

// SpawnWorkers starts n worker processes and waits for each to announce
// its address. The caller's binary must call MaybeWorkerProcess in main.
func SpawnWorkers(n int, seed int64) (*ProcFleet, error) {
	f := &ProcFleet{
		Addrs: make([]string, n),
		procs: make([]*os.Process, n),
		pipes: make([]io.WriteCloser, n),
	}
	for i := 0; i < n; i++ {
		if err := f.spawn(i, seed); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// spawn starts worker slot i on a free loopback port.
func (f *ProcFleet) spawn(i int, seed int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		workerEnv+"=1",
		workerSeedEnv+"="+strconv.FormatInt(seed, 10),
	)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("shard: spawn worker %d: %w", i, err)
	}
	f.procs[i] = cmd.Process
	f.pipes[i] = stdin
	got, err := readReady(stdout, 10*time.Second)
	if err != nil {
		return fmt.Errorf("shard: worker %d: %w", i, err)
	}
	f.Addrs[i] = got
	// Reap the child when it exits so it never zombies; drain stdout so
	// the child can't block on a full pipe.
	go func(c *exec.Cmd, r io.Reader) {
		io.Copy(io.Discard, r)
		c.Wait()
	}(cmd, stdout)
	return nil
}

// readReady scans the child's stdout for its ready line.
func readReady(r io.Reader, timeout time.Duration) (string, error) {
	type line struct {
		addr string
		err  error
	}
	ch := make(chan line, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if s, ok := strings.CutPrefix(sc.Text(), readyPrefix); ok {
				ch <- line{addr: strings.TrimSpace(s)}
				return
			}
		}
		err := sc.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		ch <- line{err: fmt.Errorf("no ready line: %w", err)}
	}()
	select {
	case l := <-ch:
		return l.addr, l.err
	case <-time.After(timeout):
		return "", fmt.Errorf("timed out waiting for worker ready line")
	}
}

// Close shuts the whole fleet down (stdin close first for a graceful
// exit, then a kill as backstop).
func (f *ProcFleet) Close() {
	for i := range f.procs {
		if f.procs[i] == nil {
			continue
		}
		f.pipes[i].Close()
	}
	time.Sleep(50 * time.Millisecond)
	for i := range f.procs {
		if f.procs[i] == nil {
			continue
		}
		f.procs[i].Kill()
		f.procs[i] = nil
	}
}
