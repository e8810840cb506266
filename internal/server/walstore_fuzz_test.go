package server

import (
	"encoding/binary"
	"log/slog"
	"testing"

	"datastall/internal/wal"
)

// fuzzUnknown is a record type replay must skip as unknown.
const fuzzUnknown wal.Type = "bogus"

// fuzzTypes are the record types a fuzzed record can carry: the five the
// server writes, plus fuzzUnknown.
var fuzzTypes = []wal.Type{
	wal.TypeSubmitted, wal.TypeStarted, wal.TypeCaseDone,
	wal.TypeCancelRequested, wal.TypeTerminal, fuzzUnknown,
}

// fuzzIDs are the job IDs a fuzzed record can carry; "" must be skipped.
var fuzzIDs = []string{"", "job-000001", "job-000002", "job-000003"}

// fuzzMaxRecords keeps each input a short record list.
const fuzzMaxRecords = 16

// decodeFuzzRecords reads data as a list of records, each framed as
// [type][id][payload length, uint16 LE][payload]; a short final frame takes
// what is left.
func decodeFuzzRecords(data []byte) []wal.Record {
	var out []wal.Record
	for len(data) >= 4 && len(out) < fuzzMaxRecords {
		typ := fuzzTypes[int(data[0])%len(fuzzTypes)]
		id := fuzzIDs[int(data[1])%len(fuzzIDs)]
		n := int(binary.LittleEndian.Uint16(data[2:4]))
		data = data[4:]
		n = min(n, len(data))
		out = append(out, wal.Record{Type: typ, JobID: id, Payload: data[:n:n]})
		data = data[n:]
	}
	return out
}

// encodeFuzzRecords is decodeFuzzRecords' inverse, for seeding the corpus;
// it reports false for a record the framing cannot carry.
func encodeFuzzRecords(recs []wal.Record) ([]byte, bool) {
	var out []byte
	for _, r := range recs {
		ti, ii := -1, -1
		for i, t := range fuzzTypes {
			if t == r.Type {
				ti = i
			}
		}
		for i, id := range fuzzIDs {
			if id == r.JobID {
				ii = i
			}
		}
		if ti < 0 || ii < 0 || len(r.Payload) > 0xffff {
			return nil, false
		}
		out = append(out, byte(ti), byte(ii))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Payload)))
		out = append(out, r.Payload...)
	}
	return out, true
}

// FuzzReplayWAL feeds replayWAL arbitrary record lists — the on-disk input
// a corrupt or foreign WAL hands the server once the framing layer
// (FuzzDecode) has accepted it. Seeds are the records of one golden run:
// every prefix, every record alone, and the stream with one terminal record
// filed under another job. Invariants: no
// panic; every job left in the store has a non-empty ID, appears once, and
// is either terminal with done closed or queued; every record with no job
// ID or an unknown type is counted as a load error.
func FuzzReplayWAL(f *testing.F) {
	golden := runGolden(f).records
	for n := 1; n <= len(golden) && n <= fuzzMaxRecords; n++ {
		if b, ok := encodeFuzzRecords(golden[:n]); ok {
			f.Add(b)
		}
	}
	for _, r := range golden {
		if b, ok := encodeFuzzRecords([]wal.Record{r}); ok {
			f.Add(b)
		}
	}
	// The last terminal record filed under the first job's ID: replay keys
	// jobs by record ID, so unless it checks the payload's own ID against
	// it, the second job is stored twice (once terminal, once pending).
	misfiled := append([]wal.Record(nil), golden...)
	for i := len(misfiled) - 1; i >= 0; i-- {
		if misfiled[i].Type == wal.TypeTerminal {
			misfiled[i].JobID = misfiled[0].JobID
			break
		}
	}
	if b, ok := encodeFuzzRecords(misfiled); ok {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeFuzzRecords(data)
		s := &Server{store: newStore(), log: slog.New(slog.DiscardHandler)}
		pending, loadErrs := s.replayWAL(recs)

		skipped := 0
		for _, r := range recs {
			if r.JobID == "" || r.Type == fuzzUnknown {
				skipped++
			}
		}
		if loadErrs < skipped {
			t.Fatalf("loadErrs %d < %d records with no job id or an unknown type", loadErrs, skipped)
		}
		seen := map[string]bool{}
		for _, j := range s.store.list() {
			if j.ID == "" {
				t.Fatal("job with empty id in store")
			}
			if seen[j.ID] {
				t.Fatalf("job %s listed twice", j.ID)
			}
			seen[j.ID] = true
			closed := false
			select {
			case <-j.done:
				closed = true
			default:
			}
			switch st := j.StatusNow(); {
			case st.Terminal() && !closed:
				t.Fatalf("job %s is %s but done is open", j.ID, st)
			case !st.Terminal() && (st != StatusQueued || closed):
				t.Fatalf("job %s left %s (done closed: %v)", j.ID, st, closed)
			}
		}
		for _, j := range pending {
			if !seen[j.ID] || j.StatusNow() != StatusQueued {
				t.Fatalf("pending job %s not queued in the store", j.ID)
			}
		}
	})
}
