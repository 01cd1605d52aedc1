package raft

import (
	"testing"

	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// These tests drive the Raft RPC handlers directly (no running election
// loop) to verify the protocol rules in isolation.

func freshNode(id string) *Node {
	return NewNode(Config{
		ID:        id,
		Peers:     []string{id, "peer1", "peer2"},
		Transport: transport.NewInProc(),
	})
}

func requestVote(t *testing.T, n *Node, term uint64, candidate string) *proto.VoteResponse {
	t.Helper()
	req := proto.VoteRequest{Term: term, Candidate: candidate}
	respB, err, handled := n.HandleRPC(proto.MethodRequestVote, req.Marshal())
	if !handled || err != nil {
		t.Fatalf("HandleRPC: handled=%v err=%v", handled, err)
	}
	resp, err := proto.UnmarshalVoteResponse(respB)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestGrantsVoteOnce(t *testing.T) {
	n := freshNode("n0")
	if resp := requestVote(t, n, 1, "peer1"); !resp.Granted {
		t.Fatalf("first vote not granted")
	}
	// Same term, different candidate: rejected.
	if resp := requestVote(t, n, 1, "peer2"); resp.Granted {
		t.Errorf("voted twice in the same term")
	}
	// Same term, same candidate: idempotent re-grant.
	if resp := requestVote(t, n, 1, "peer1"); !resp.Granted {
		t.Errorf("re-vote for the same candidate rejected")
	}
}

func TestRejectsStaleTermVote(t *testing.T) {
	n := freshNode("n0")
	requestVote(t, n, 5, "peer1")
	resp := requestVote(t, n, 3, "peer2")
	if resp.Granted {
		t.Errorf("granted a vote for a stale term")
	}
	if resp.Term != 5 {
		t.Errorf("response term = %d, want 5", resp.Term)
	}
}

func TestHigherTermResetsVote(t *testing.T) {
	n := freshNode("n0")
	requestVote(t, n, 1, "peer1")
	if resp := requestVote(t, n, 2, "peer2"); !resp.Granted {
		t.Errorf("vote not reset on higher term")
	}
	if n.Term() != 2 {
		t.Errorf("term = %d, want 2", n.Term())
	}
}

// TestHeartbeatAdoptsLeader: an empty AppendEntries is the leader's
// heartbeat; one from a newer term makes its sender this node's leader,
// and one from an older term changes nothing.
func TestHeartbeatAdoptsLeader(t *testing.T) {
	n := freshNode("n0")
	hb := proto.AppendEntriesRequest{Term: 4, Leader: "peer1"}
	if _, err, handled := n.HandleRPC(proto.MethodAppendEntries, hb.Marshal()); !handled || err != nil {
		t.Fatalf("HandleRPC: handled=%v err=%v", handled, err)
	}
	if n.Leader() != "peer1" || n.Term() != 4 || n.State() != Follower {
		t.Errorf("state after heartbeat: leader=%q term=%d state=%v", n.Leader(), n.Term(), n.State())
	}
	old := proto.AppendEntriesRequest{Term: 2, Leader: "peer2"}
	n.HandleRPC(proto.MethodAppendEntries, old.Marshal())
	if n.Leader() != "peer1" || n.Term() != 4 {
		t.Errorf("stale heartbeat overwrote the leader: leader=%q term=%d", n.Leader(), n.Term())
	}
}

func TestNonRaftMethodNotHandled(t *testing.T) {
	n := freshNode("n0")
	if _, _, handled := n.HandleRPC("cp.RegisterFunction", nil); handled {
		t.Errorf("non-raft method claimed as handled")
	}
}

func TestMalformedPayloadsError(t *testing.T) {
	n := freshNode("n0")
	if _, err, handled := n.HandleRPC(proto.MethodRequestVote, []byte{0x01}); !handled || err == nil {
		t.Errorf("malformed vote request: handled=%v err=%v", handled, err)
	}
	if _, err, handled := n.HandleRPC(proto.MethodAppendEntries, []byte{0x01}); !handled || err == nil {
		t.Errorf("malformed append entries: handled=%v err=%v", handled, err)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	tr := transport.NewInProc()
	n := NewNode(Config{ID: "solo", Peers: []string{"solo"}, Transport: tr})
	ln, err := tr.Listen("solo", func(method string, payload []byte) ([]byte, error) {
		resp, err, _ := n.HandleRPC(method, payload)
		return resp, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.Start()
	n.Start() // second start is a no-op
	n.Stop()
	n.Stop() // second stop is a no-op
}
