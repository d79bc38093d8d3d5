package backend

import (
	"bytes"
	"testing"

	"firestore/internal/doc"
)

// FuzzUnmarshalChange feeds arbitrary bytes to the trigger-payload
// decoder. The decoder consumes untrusted persisted bytes (a topic
// subscriber may replay old or corrupted payloads), so it must return an
// error — never panic or over-read — on any input. Seeds are real
// payloads so the fuzzer starts inside the format: frames whose old blob
// carries its own timestamps (marshalChange, what was persisted before
// the version timestamp joined the frame, cut short of it) and frames as
// the write path builds them, a stored row plus the timestamp it was
// read at.
func FuzzUnmarshalChange(f *testing.F) {
	mustDoc := func(name string, fields map[string]doc.Value) *doc.Document {
		return &doc.Document{Name: doc.MustName(name), Fields: fields, CreateTime: 1, UpdateTime: 2}
	}
	created := mustDoc("/rooms/a", map[string]doc.Value{"name": doc.String("alpha"), "n": doc.Int(7)})
	updated := mustDoc("/rooms/a", map[string]doc.Value{"name": doc.String("beta"), "ok": doc.Bool(true)})

	f.Add(marshalChange(nil, created, created.Name))     // create
	f.Add(marshalChange(created, updated, created.Name)) // update
	f.Add(marshalChange(updated, nil, updated.Name))     // delete
	legacy := marshalChange(created, updated, created.Name)
	f.Add(legacy[:len(legacy)-8]) // no trailing timestamp
	stored := &doc.Document{Name: created.Name, Fields: created.Fields}
	f.Add(changePayload("/rooms/a", doc.Marshal(stored), 41, doc.Marshal(updated))) // the write path's frame
	f.Add(changePayload("/rooms/a", doc.Marshal(stored), 41, nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(marshalChange(nil, created, created.Name)[:5]) // truncated

	f.Fuzz(func(t *testing.T, payload []byte) {
		name, old, new, err := UnmarshalChange(payload)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode to a payload that decodes
		// to the same change (the encoder's output is a fixpoint).
		re := marshalChange(old, new, name)
		name2, old2, new2, err := UnmarshalChange(re)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if name2.String() != name.String() {
			t.Fatalf("name changed across round-trip: %v -> %v", name, name2)
		}
		if !sameDoc(old, old2) || !sameDoc(new, new2) {
			t.Fatal("document changed across round-trip")
		}
	})
}

// marshalChange frames a change from documents that carry their own
// timestamps (no version timestamp in the frame).
func marshalChange(old, new *doc.Document, name doc.Name) []byte {
	var ob, nb []byte
	if old != nil {
		ob = doc.Marshal(old)
	}
	if new != nil {
		nb = doc.Marshal(new)
	}
	return changePayload(name.String(), ob, 0, nb)
}

func sameDoc(a, b *doc.Document) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return bytes.Equal(doc.Marshal(a), doc.Marshal(b))
}
