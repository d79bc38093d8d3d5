package mobile

import (
	"encoding/binary"
	"fmt"

	"firestore/firestore"
)

// This file implements optional local-cache persistence (§IV-E: "an end
// user can choose to persist their local cache. ... persistence provides
// a warm cache as a starting point" after a device restart).

// Export serializes the client's cached documents and pending mutation
// queue: two counted lists of length-prefixed snapshot encodings.
func (c *Client) Export() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	cached := make([]*firestore.DocumentSnapshot, 0, len(c.docs))
	for _, s := range c.docs {
		cached = append(cached, s)
	}
	var out []byte
	for _, list := range [][]*firestore.DocumentSnapshot{cached, c.mutations} {
		out = binary.AppendUvarint(out, uint64(len(list)))
		for _, s := range list {
			blob, _ := s.MarshalBinary() // never fails
			out = binary.AppendUvarint(out, uint64(len(blob)))
			out = append(out, blob...)
		}
	}
	return out
}

// Import restores state captured by Export into a fresh client, warming
// its cache and re-queuing unflushed mutations. It then kicks a flush if
// online.
func (c *Client) Import(state []byte) error {
	var lists [2][]*firestore.DocumentSnapshot
	for i := range lists {
		n, rest, err := readUvarint(state)
		if err != nil {
			return err
		}
		for state = rest; n > 0; n-- {
			size, rest, err := readUvarint(state)
			if err != nil {
				return err
			}
			if size > uint64(len(rest)) {
				return fmt.Errorf("mobile: snapshot length %d overflows state", size)
			}
			s, err := c.fs.UnmarshalSnapshot(rest[:size])
			if err != nil {
				return err
			}
			lists[i], state = append(lists[i], s), rest[size:]
		}
	}
	if len(state) != 0 {
		return fmt.Errorf("mobile: %d trailing state bytes", len(state))
	}
	c.mu.Lock()
	c.docs = make(map[string]*firestore.DocumentSnapshot, len(lists[0]))
	for _, s := range lists[0] {
		c.cacheLocked(s)
	}
	c.mutations = lists[1]
	c.mu.Unlock()
	c.flushAsync()
	return nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("mobile: bad varint in state")
	}
	return v, b[n:], nil
}
