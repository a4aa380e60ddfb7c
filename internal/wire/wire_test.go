package wire

import "testing"

func TestHelloValidate(t *testing.T) {
	if err := (Hello{SourceID: "s"}).Validate(); err != nil {
		t.Errorf("valid hello rejected: %v", err)
	}
	if err := (Hello{}).Validate(); err == nil {
		t.Error("empty hello accepted")
	}
}

func TestRefreshValidate(t *testing.T) {
	good := Refresh{SourceID: "s", ObjectID: "o"}
	if err := good.Validate(); err != nil {
		t.Errorf("valid refresh rejected: %v", err)
	}
	if err := (Refresh{ObjectID: "o"}).Validate(); err == nil {
		t.Error("refresh without source accepted")
	}
	if err := (Refresh{SourceID: "s"}).Validate(); err == nil {
		t.Error("refresh without object accepted")
	}
	if err := (Refresh{SourceID: "s", ObjectID: "o", Hops: -1}).Validate(); err == nil {
		t.Error("refresh with negative hop count accepted")
	}
	if err := (Refresh{SourceID: "s", ObjectID: "o", Origin: "root", Hops: 2}).Validate(); err != nil {
		t.Errorf("relayed refresh rejected: %v", err)
	}
}

func TestRefreshOriginID(t *testing.T) {
	if got := (Refresh{SourceID: "s"}).OriginID(); got != "s" {
		t.Errorf("direct refresh origin = %q, want s", got)
	}
	if got := (Refresh{SourceID: "relay", Origin: "root", Hops: 1}).OriginID(); got != "root" {
		t.Errorf("relayed refresh origin = %q, want root", got)
	}
}

func TestRefreshBatchValidate(t *testing.T) {
	good := RefreshBatch{Refreshes: []Refresh{
		{SourceID: "s", ObjectID: "a"},
		{SourceID: "s", ObjectID: "b"},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
	if err := (RefreshBatch{}).Validate(); err == nil {
		t.Error("empty batch accepted")
	}
	bad := RefreshBatch{Refreshes: []Refresh{
		{SourceID: "s", ObjectID: "a"},
		{SourceID: "s"}, // missing object id
	}}
	if err := bad.Validate(); err == nil {
		t.Error("batch with invalid refresh accepted")
	}
}

func TestRefreshOriginAxis(t *testing.T) {
	direct := Refresh{SourceID: "s", ObjectID: "o", Epoch: 7, Version: 3}
	if e, v := direct.OriginAxis(); e != 7 || v != 3 {
		t.Errorf("direct origin axis = (%d, %d), want (7, 3)", e, v)
	}
	relayed := Refresh{
		SourceID: "relay", ObjectID: "o", Origin: "root",
		Epoch: 99, Version: 1, OriginEpoch: 7, OriginVersion: 3,
	}
	if e, v := relayed.OriginAxis(); e != 7 || v != 3 {
		t.Errorf("relayed origin axis = (%d, %d), want (7, 3)", e, v)
	}
}

func TestPollValidate(t *testing.T) {
	if err := (Poll{CacheID: "c"}).Validate(); err != nil {
		t.Errorf("discovery poll rejected: %v", err)
	}
	if err := (Poll{ObjectIDs: []string{"a", "b"}}).Validate(); err != nil {
		t.Errorf("valid poll rejected: %v", err)
	}
	if err := (Poll{ObjectIDs: []string{"a", ""}}).Validate(); err == nil {
		t.Error("poll with empty object id accepted")
	}
}

func TestPollReplyValidate(t *testing.T) {
	good := PollReply{SourceID: "s", Items: []PollItem{{ObjectID: "a", Exists: true}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid reply rejected: %v", err)
	}
	if err := (PollReply{Items: []PollItem{{ObjectID: "a"}}}).Validate(); err == nil {
		t.Error("reply without source accepted")
	}
	if err := (PollReply{SourceID: "s", Items: []PollItem{{}}}).Validate(); err == nil {
		t.Error("reply with empty object id accepted")
	}
}

func TestEnvelopeValidate(t *testing.T) {
	if err := (CacheBound{Batch: &RefreshBatch{}}).Validate(); err != nil {
		t.Errorf("batch envelope rejected: %v", err)
	}
	if err := (CacheBound{Reply: &PollReply{}}).Validate(); err != nil {
		t.Errorf("reply envelope rejected: %v", err)
	}
	if err := (CacheBound{}).Validate(); err == nil {
		t.Error("empty cache-bound envelope accepted")
	}
	if err := (CacheBound{Batch: &RefreshBatch{}, Reply: &PollReply{}}).Validate(); err == nil {
		t.Error("double cache-bound envelope accepted")
	}
	if err := (SourceBound{Feedback: &Feedback{}}).Validate(); err != nil {
		t.Errorf("feedback envelope rejected: %v", err)
	}
	if err := (SourceBound{Poll: &Poll{}}).Validate(); err != nil {
		t.Errorf("poll envelope rejected: %v", err)
	}
	if err := (SourceBound{}).Validate(); err == nil {
		t.Error("empty source-bound envelope accepted")
	}
}
