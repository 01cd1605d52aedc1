package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env says where numbers came from; every report and saved result has one.
type env struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Platform   string `json:"platform"`
}

func (e env) String() string {
	return fmt.Sprintf("commit=%s nproc=%d gomaxprocs=%d go=%s kernel=%s platform=%s",
		e.Commit, e.NProc, e.GOMAXPROCS, e.Go, e.Kernel, e.Platform)
}

func currentEnv() env {
	e := env{
		Commit: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Kernel: "unknown", Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}
	// The driver's checkout is not a git repository; there the commit
	// stays unknown, and the ceiling keeps git from looking for one above
	// the checkout. CommandContext kills and reaps a git that hangs.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if cwd, err := os.Getwd(); err == nil {
		git := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD")
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
		if out, err := git.Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		e.Kernel = string(b)
	}
	return e
}
