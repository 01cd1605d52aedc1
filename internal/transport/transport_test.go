package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// runTransportSuite exercises behaviours every Transport must provide.
func runTransportSuite(t *testing.T, tr Transport, mkAddr func(i int) string) {
	t.Helper()

	t.Run("echo", func(t *testing.T) {
		addr := mkAddr(1)
		ln, err := tr.Listen(addr, func(method string, payload []byte) ([]byte, error) {
			return append([]byte(method+":"), payload...), nil
		})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		resp, err := tr.Call(context.Background(), ln.Addr(), "m.Echo", []byte("hi"))
		if err != nil {
			t.Fatalf("call: %v", err)
		}
		if !bytes.Equal(resp, []byte("m.Echo:hi")) {
			t.Errorf("resp = %q", resp)
		}
	})

	t.Run("remote error", func(t *testing.T) {
		addr := mkAddr(2)
		ln, err := tr.Listen(addr, func(string, []byte) ([]byte, error) {
			return nil, errors.New("boom")
		})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		_, err = tr.Call(context.Background(), ln.Addr(), "m", nil)
		if !errors.Is(err, ErrRemote) {
			t.Errorf("err = %v, want ErrRemote", err)
		}
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "boom" {
			t.Errorf("remote message = %v", err)
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		_, err := tr.Call(context.Background(), mkAddr(3), "m", nil)
		if !errors.Is(err, ErrUnreachable) {
			t.Errorf("err = %v, want ErrUnreachable", err)
		}
	})

	t.Run("closed listener unreachable", func(t *testing.T) {
		addr := mkAddr(4)
		ln, err := tr.Listen(addr, func(string, []byte) ([]byte, error) { return nil, nil })
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		real := ln.Addr()
		ln.Close()
		// Allow in-flight teardown.
		time.Sleep(10 * time.Millisecond)
		if _, err := tr.Call(context.Background(), real, "m", nil); !errors.Is(err, ErrUnreachable) {
			t.Errorf("call to closed listener: %v, want ErrUnreachable", err)
		}
	})

	t.Run("concurrent calls", func(t *testing.T) {
		addr := mkAddr(5)
		ln, err := tr.Listen(addr, func(_ string, payload []byte) ([]byte, error) {
			return payload, nil
		})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				want := []byte(fmt.Sprintf("payload-%d", i))
				resp, err := tr.Call(context.Background(), ln.Addr(), "m", want)
				if err != nil {
					t.Errorf("call %d: %v", i, err)
					return
				}
				if !bytes.Equal(resp, want) {
					t.Errorf("call %d: response mismatch %q", i, resp)
				}
			}(i)
		}
		wg.Wait()
	})

	t.Run("large payload", func(t *testing.T) {
		addr := mkAddr(6)
		ln, err := tr.Listen(addr, func(_ string, payload []byte) ([]byte, error) {
			return payload, nil
		})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		big := bytes.Repeat([]byte{0x5A}, 1<<20)
		resp, err := tr.Call(context.Background(), ln.Addr(), "m", big)
		if err != nil {
			t.Fatalf("call: %v", err)
		}
		if !bytes.Equal(resp, big) {
			t.Errorf("large payload corrupted (len %d)", len(resp))
		}
	})
}

func TestInProcTransport(t *testing.T) {
	tr := NewInProc()
	runTransportSuite(t, tr, func(i int) string { return fmt.Sprintf("svc-%d", i) })
}

func TestTCPTransport(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	runTransportSuite(t, tr, func(i int) string { return "127.0.0.1:0" })
}

func TestInProcDuplicateListen(t *testing.T) {
	tr := NewInProc()
	ln, err := tr.Listen("dup", func(string, []byte) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := tr.Listen("dup", func(string, []byte) ([]byte, error) { return nil, nil }); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("duplicate listen: %v, want ErrAddrInUse", err)
	}
}

func TestInProcReListenAfterClose(t *testing.T) {
	tr := NewInProc()
	ln, err := tr.Listen("svc", func(string, []byte) ([]byte, error) { return []byte("v1"), nil })
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	ln2, err := tr.Listen("svc", func(string, []byte) ([]byte, error) { return []byte("v2"), nil })
	if err != nil {
		t.Fatalf("re-listen: %v", err)
	}
	defer ln2.Close()
	resp, err := tr.Call(context.Background(), "svc", "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "v2" {
		t.Errorf("resp = %q, want v2 (restarted component)", resp)
	}
}

func TestInProcNilHandler(t *testing.T) {
	tr := NewInProc()
	if _, err := tr.Listen("x", nil); err == nil {
		t.Errorf("nil handler should be rejected")
	}
}

// deadlineKinds are the two ways the invoke path bounds a call.
var deadlineKinds = map[string]func(time.Duration) (context.Context, func()){
	"WithTimeout": func(d time.Duration) (context.Context, func()) {
		return context.WithTimeout(context.Background(), d)
	},
	"Deadline": func(d time.Duration) (context.Context, func()) {
		ctx := NewDeadline(context.Background(), d)
		return ctx, ctx.Stop
	},
}

// TestInProcContextCancellation: under either context kind, a deadline
// that passes during the modelled latency ends the call on time, and one
// already past refuses the call before the handler runs.
func TestInProcContextCancellation(t *testing.T) {
	for name, bound := range deadlineKinds {
		t.Run(name, func(t *testing.T) {
			tr := NewInProc()
			handled := 0 // the handler runs on the calling goroutine
			ln, err := tr.Listen("slow", func(string, []byte) ([]byte, error) {
				handled++
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			tr.SetLatency(time.Second)
			ctx, stop := bound(10 * time.Millisecond)
			defer stop()
			start := time.Now()
			if _, err := tr.Call(ctx, "slow", "m", nil); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("during latency: err = %v, want deadline exceeded", err)
			}
			if time.Since(start) > 500*time.Millisecond {
				t.Errorf("cancellation took too long")
			}

			tr.SetLatency(0)
			past, stopPast := bound(0)
			defer stopPast()
			if _, err := tr.Call(past, "slow", "m", nil); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("past deadline: err = %v, want deadline exceeded", err)
			}
			if handled != 0 {
				t.Errorf("the handler ran %d times for calls past their deadline", handled)
			}
		})
	}
}

// TestTCPCallDeadline: a call to a handler that outlasts the deadline
// returns DeadlineExceeded at about the deadline, under either context
// kind.
func TestTCPCallDeadline(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	release := make(chan struct{})
	ln, err := tr.Listen("127.0.0.1:0", func(string, []byte) ([]byte, error) {
		select {
		case <-release:
		case <-time.After(5 * time.Second):
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer close(release)
	const timeout = 50 * time.Millisecond
	for name, bound := range deadlineKinds {
		start := time.Now() // before the deadline is set, which bound does
		ctx, stop := bound(timeout)
		_, err := tr.Call(ctx, ln.Addr(), "m", nil)
		took := time.Since(start)
		stop()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want deadline exceeded", name, err)
		}
		if took < timeout || took > timeout+time.Second {
			t.Errorf("%s: the call returned after %v, want about %v", name, took, timeout)
		}
	}
}

func TestTCPServerCloseFailsPendingCalls(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	block := make(chan struct{})
	ln, err := tr.Listen("127.0.0.1:0", func(string, []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tr.Call(context.Background(), ln.Addr(), "m", nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(block)
	ln.Close()
	select {
	case err := <-done:
		if err != nil {
			// Either a response or a connection error is acceptable once
			// the handler unblocked; a hang is not.
			t.Logf("pending call finished with: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("pending call hung after server close")
	}
}

func TestTCPReconnectAfterServerRestart(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	ln, err := tr.Listen("127.0.0.1:0", func(string, []byte) ([]byte, error) { return []byte("a"), nil })
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	if _, err := tr.Call(context.Background(), addr, "m", nil); err != nil {
		t.Fatalf("first call: %v", err)
	}
	ln.Close()
	// Calls now fail; the client must drop the dead connection.
	if _, err := tr.Call(context.Background(), addr, "m", nil); err == nil {
		t.Fatalf("call to closed server should fail")
	}
	ln2, err := tr.Listen(addr, func(string, []byte) ([]byte, error) { return []byte("b"), nil })
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	defer ln2.Close()
	resp, err := tr.Call(context.Background(), addr, "m", nil)
	if err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if string(resp) != "b" {
		t.Errorf("resp = %q, want b", resp)
	}
}
