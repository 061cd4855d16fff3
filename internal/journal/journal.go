// Package journal gives the last-hop proxy durability: every input
// (topic registrations, notifications, rank updates, reads, network
// changes) is appended to a JSON-lines journal, and after a crash the
// proxy is rebuilt by replaying the journal into a fresh instance.
//
// Recovery leans on the same property as internal/replica: the proxy is a
// deterministic state machine over its inputs. During replay the forwarder
// is muted, so nothing is re-sent to the device; a message that was in
// flight when the proxy died is reconciled by the READ protocol itself
// (the device's client_events deduplicate double-sends and missed sends
// are re-requested at the next read).
//
// Compact bounds the journal by rewriting it, in order, to the entries
// that still matter: registrations of surviving topics, unexpired
// notifications, rank updates that target them, and the reads and network
// changes that tune the proxy.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/msg"
)

// Kind discriminates journal entries.
type Kind string

// Journal entry kinds.
const (
	KindAddTopic    Kind = "add-topic"
	KindRemoveTopic Kind = "remove-topic"
	KindNotify      Kind = "notify"
	KindRankUpdate  Kind = "rank-update"
	KindRead        Kind = "read"
	KindNetwork     Kind = "network"
	KindResume      Kind = "resume"
)

// Entry is one journaled proxy input.
type Entry struct {
	// At is the instant the input was applied.
	At time.Time `json:"at"`
	// Kind selects which payload field is set.
	Kind Kind `json:"kind"`

	TopicConfig  *core.TopicConfig `json:"topicConfig,omitempty"`
	TopicName    string            `json:"topicName,omitempty"`
	Notification *msg.Notification `json:"notification,omitempty"`
	Update       *msg.RankUpdate   `json:"update,omitempty"`
	Read         *msg.ReadRequest  `json:"read,omitempty"`
	NetworkUp    *bool             `json:"networkUp,omitempty"`
	Resume       *ResumePayload    `json:"resume,omitempty"`
}

// ResumePayload journals one session-resumption reconciliation: the ID
// sets a reconnecting device replayed for a topic.
type ResumePayload struct {
	Topic string   `json:"topic"`
	Have  []msg.ID `json:"have,omitempty"`
	Read  []msg.ID `json:"read,omitempty"`
}

// Validate checks that the entry's payload matches its kind.
func (e Entry) Validate() error {
	switch e.Kind {
	case KindAddTopic:
		if e.TopicConfig == nil {
			return errors.New("add-topic entry without config")
		}
	case KindRemoveTopic:
		if e.TopicName == "" {
			return errors.New("remove-topic entry without name")
		}
	case KindNotify:
		if e.Notification == nil {
			return errors.New("notify entry without notification")
		}
	case KindRankUpdate:
		if e.Update == nil {
			return errors.New("rank-update entry without update")
		}
	case KindRead:
		if e.Read == nil {
			return errors.New("read entry without request")
		}
	case KindNetwork:
		if e.NetworkUp == nil {
			return errors.New("network entry without status")
		}
	case KindResume:
		if e.Resume == nil {
			return errors.New("resume entry without payload")
		}
		if e.Resume.Topic == "" {
			return errors.New("resume entry without topic")
		}
	default:
		return fmt.Errorf("unknown entry kind %q", e.Kind)
	}
	return nil
}

// Journal is an append-only JSON-lines file of entries. Append is safe for
// concurrent use.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer
	enc  *json.Encoder
	n    int
}

// Open opens (creating if needed) a journal for appending.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	w := bufio.NewWriter(f)
	return &Journal{path: path, f: f, w: w, enc: json.NewEncoder(w)}, nil
}

// Append writes one entry and flushes it to the operating system.
func (j *Journal) Append(e Entry) error {
	if err := e.Validate(); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("append: journal closed")
	}
	if err := j.enc.Encode(e); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	j.n++
	return nil
}

// Sync forces the journal to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("sync: journal closed")
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Appended returns how many entries this handle has written.
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Close flushes the file, syncs it to stable storage and closes it.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.w.Flush()
	if err == nil {
		err = j.f.Sync()
	}
	if closeErr := j.f.Close(); err == nil {
		err = closeErr
	}
	j.f = nil
	return err
}

// ReadAll streams every entry of a journal file. A missing file yields no
// entries. A torn final line (crash mid-append) is tolerated and dropped
// silently; corruption anywhere else is an error. Use ReadAllOpts to log
// the dropped tail.
func ReadAll(path string, fn func(Entry) error) error {
	return ReadAllOpts(path, nil, fn)
}

// ReadAllOpts streams every entry of a journal file. A missing file
// yields no entries. A final line that fails to decode or validate is a
// torn tail from a crash mid-append: it is skipped and reported to warnf
// (nil discards the diagnostic) with its byte offset, so the truncation
// point is recoverable by hand. A line that fails with more data after
// it is corruption, not a tear, and is an error.
//
// Lines are framed with an unbounded reader rather than a fixed-capacity
// scanner: an entry larger than any preset buffer (a huge payload) must
// replay, not silently end the scan and drop everything after it.
func ReadAllOpts(path string, warnf func(string, ...any), fn func(Entry) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("read journal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var (
		offset     int64 // file offset of the line about to be read
		pendingErr error // decode failure awaiting the is-it-last verdict
		pendingOff int64
	)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			if pendingErr != nil {
				return fmt.Errorf("corrupt journal entry at byte %d: %w", pendingOff, pendingErr)
			}
			trimmed := bytes.TrimRight(line, "\r\n")
			if len(trimmed) > 0 {
				var e Entry
				if derr := json.Unmarshal(trimmed, &e); derr != nil {
					pendingErr, pendingOff = derr, offset
				} else if verr := e.Validate(); verr != nil {
					pendingErr, pendingOff = verr, offset
				} else if ferr := fn(e); ferr != nil {
					return ferr
				}
			}
			offset += int64(len(line))
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("read journal: %w", err)
		}
	}
	if pendingErr != nil && warnf != nil {
		warnf("journal %s: dropping torn final entry at byte %d: %v", path, pendingOff, pendingErr)
	}
	return nil
}
