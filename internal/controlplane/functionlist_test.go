package controlplane

import (
	"bytes"
	"fmt"
	"testing"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/store"
)

// TestFunctionListCostIsFlatInRegistrySize checks that the list a sync or
// a ListFunctions answer carries is framed from the stored records: its
// allocations are the same for 64 and 16 384 functions (a build that
// marshals each function again makes about one per function), and it
// holds exactly the bytes FunctionList.Marshal writes for the functions
// it lists, the latest registration of each.
func TestFunctionListCostIsFlatInRegistrySize(t *testing.T) {
	allocs := make(map[int]float64)
	for _, n := range []int{64, 16384} {
		h, _ := newParkedHarness(t)
		names := registerFunctions(t, h, n)
		// A re-registration replaces the record the list frames.
		fn := fnSpec(names[0])
		fn.Image = "img:v2"
		h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))

		b := h.cp.functionList()
		list, err := proto.UnmarshalFunctionList(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Functions) != n {
			t.Fatalf("%d functions: the list holds %d", n, len(list.Functions))
		}
		if !bytes.Equal(b, list.Marshal()) {
			t.Fatalf("%d functions: the framed list differs from FunctionList.Marshal", n)
		}
		for _, f := range list.Functions {
			if f.Name == names[0] && f.Image != "img:v2" {
				t.Fatalf("%s listed with image %q after its re-registration, want img:v2", f.Name, f.Image)
			}
		}
		allocs[n] = testing.AllocsPerRun(20, func() { h.cp.functionList() })
		t.Logf("%d functions: %.0f allocations per list", n, allocs[n])
	}
	if allocs[64] != allocs[16384] {
		t.Fatalf("allocations per list: %.0f for 64 functions, %.0f for 16384", allocs[64], allocs[16384])
	}
}

// TestFollowerFunctionListCostIsFlatInRegistrySize is the follower's twin
// of TestFunctionListCostIsFlatInRegistrySize: a follower answers
// ListFunctions by framing the records of its applied store, so the list
// costs the same allocations for 64 and 16 384 functions (decoding,
// sorting and marshaling each function again made about four per
// function), and holds exactly the bytes FunctionList.Marshal writes for
// the functions it lists. A record core.ViewFunction refuses is left out.
func TestFollowerFunctionListCostIsFlatInRegistrySize(t *testing.T) {
	allocs := make(map[int]float64)
	for _, n := range []int{64, 16384} {
		applied := store.NewMemory()
		for i := 0; i < n; i++ {
			fn := fnSpec(fmt.Sprintf("fn-%05d", i))
			if err := applied.HSet(hashFunctions, fn.Name, core.MarshalFunction(&fn)); err != nil {
				t.Fatal(err)
			}
		}
		cp := &ControlPlane{applied: applied}
		allocs[n] = testing.AllocsPerRun(20, func() { cp.appliedFunctionList() })
		t.Logf("%d functions: %.0f allocations per follower list", n, allocs[n])

		if err := applied.HSet(hashFunctions, "corrupt", []byte{0xff}); err != nil {
			t.Fatal(err)
		}
		b := cp.appliedFunctionList()
		list, err := proto.UnmarshalFunctionList(b)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool, n)
		for _, f := range list.Functions {
			seen[f.Name] = true
		}
		if len(list.Functions) != n || len(seen) != n || seen["corrupt"] {
			t.Fatalf("%d functions and a corrupt record: the list holds %d records for %d names", n, len(list.Functions), len(seen))
		}
		if !bytes.Equal(b, list.Marshal()) {
			t.Fatalf("%d functions: the framed list differs from FunctionList.Marshal", n)
		}
	}
	if allocs[64] != allocs[16384] {
		t.Fatalf("allocations per follower list: %.0f for 64 functions, %.0f for 16384", allocs[64], allocs[16384])
	}
}
