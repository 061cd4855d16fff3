// Command lasthop-journal inspects and maintains the last hop's durable
// state: -dump lists a proxy journal's entries, -compact rewrites the
// journal to the entries that still determine proxy state (run it while
// the proxy is stopped), and -spool inspects a multi-tenant host's
// hibernation spool — listing every spooled session with its queue
// depths, or, with -verify, checksum-verifying every record.
//
// Examples:
//
//	lasthop-journal -dump proxy.journal
//	lasthop-journal -compact proxy.journal
//	lasthop-journal -spool /var/lib/lasthop/spool
//	lasthop-journal -spool /var/lib/lasthop/spool -verify
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/journal"
	"lasthop/internal/spool"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lasthop-journal:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dump     = flag.String("dump", "", "journal file to list")
		compact  = flag.String("compact", "", "journal file to compact in place")
		spoolDir = flag.String("spool", "", "host spool directory to inspect (the -spool-dir of lasthop-proxy, or one worker-N subdirectory)")
		verify   = flag.Bool("verify", false, "with -spool: checksum-verify every record instead of listing sessions")
	)
	flag.Parse()

	switch {
	case *spoolDir != "":
		if *verify {
			return verifySpool(*spoolDir)
		}
		return listSpool(*spoolDir)
	case *dump != "":
		count := 0
		err := journal.ReadAllOpts(*dump, warnf, func(e journal.Entry) error {
			count++
			fmt.Printf("%s  %-12s  %s\n", e.At.Format(time.RFC3339), e.Kind, describe(e))
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("%d entries\n", count)
		return nil
	case *compact != "":
		before := 0
		if err := journal.ReadAll(*compact, func(journal.Entry) error {
			before++
			return nil
		}); err != nil {
			return err
		}
		kept, err := journal.Compact(*compact, time.Now())
		if err != nil {
			return err
		}
		fmt.Printf("compacted %s: %d -> %d entries\n", *compact, before, kept)
		return nil
	default:
		flag.Usage()
		return fmt.Errorf("one of -dump, -compact, or -spool is required")
	}
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lasthop-journal: "+format+"\n", args...)
}

// sessionChain accumulates one session's spool chain during a scan: the
// latest snapshot wins (compaction may leave older duplicates), deltas
// after it count toward the replay backlog, and a newer tombstone ends
// the session.
type sessionChain struct {
	snap    spool.Record
	snapped bool
	deltas  int
	tombed  bool
	tombAt  time.Time
}

// listSpool prints every spooled session with its topics and Figure 7
// queue depths, decoded from the latest snapshot.
func listSpool(dir string) error {
	dirs, err := spool.SegmentDirs(dir)
	if err != nil {
		return err
	}
	sessions := make(map[string]*sessionChain)
	for _, d := range dirs {
		err := spool.ScanDir(d, 0, warnf, func(_ spool.Loc, r spool.Record) error {
			c := sessions[r.Name]
			if c == nil {
				c = &sessionChain{}
				sessions[r.Name] = c
			}
			switch r.Kind {
			case spool.KindSnapshot:
				if !c.snapped || !r.At.Before(c.snap.At) {
					c.snap = r
					c.snapped = true
					c.deltas = 0
				}
			case spool.KindDelta:
				if c.snapped && !r.At.Before(c.snap.At) {
					c.deltas++
				}
			case spool.KindTombstone:
				c.tombed = true
				c.tombAt = r.At
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	names := make([]string, 0, len(sessions))
	for name := range sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	live := 0
	for _, name := range names {
		c := sessions[name]
		if !c.snapped || (c.tombed && c.tombAt.After(c.snap.At)) {
			continue
		}
		live++
		var snap core.ProxySnapshot
		if err := json.Unmarshal(c.snap.Payload, &snap); err != nil {
			fmt.Printf("%-24s  snapshot %s  UNDECODABLE: %v\n",
				name, c.snap.At.Format(time.RFC3339), err)
			continue
		}
		outgoing, prefetch, holding, delayed, history := 0, 0, 0, 0, 0
		topics := make([]string, 0, len(snap.Topics))
		for _, td := range snap.Topics {
			topics = append(topics, td.State.Topic)
			outgoing += len(td.State.Outgoing)
			prefetch += len(td.State.Prefetch)
			holding += len(td.State.Holding)
			delayed += len(td.State.Delayed)
			history += len(td.State.History)
		}
		fmt.Printf("%-24s  snapshot %s  topics=%d %v  deltas=%d  outgoing=%d prefetch=%d holding=%d delayed=%d history=%d\n",
			name, c.snap.At.Format(time.RFC3339), len(topics), topics, c.deltas,
			outgoing, prefetch, holding, delayed, history)
	}
	fmt.Printf("%d live sessions (%d names seen) across %d worker dirs\n", live, len(sessions), len(dirs))
	return nil
}

// verifySpool checksum-verifies every record and prints the
// per-segment tallies; any corrupt record fails the command, a torn
// tail does not.
func verifySpool(dir string) error {
	tallies, err := spool.Verify(dir)
	records := 0
	for _, t := range tallies {
		fmt.Printf("%s  %d records (%d snapshots, %d deltas, %d tombstones)  %d payload bytes\n",
			t.Path, t.Records, t.Kinds[spool.KindSnapshot], t.Kinds[spool.KindDelta], t.Kinds[spool.KindTombstone], t.Bytes)
		records += t.Records
	}
	if err != nil {
		return err
	}
	fmt.Printf("%d records across %d segments verified\n", records, len(tallies))
	return nil
}

func describe(e journal.Entry) string {
	switch e.Kind {
	case journal.KindAddTopic:
		return fmt.Sprintf("topic=%s policy=%s", e.TopicConfig.Name, e.TopicConfig.Policy)
	case journal.KindRemoveTopic:
		return "topic=" + e.TopicName
	case journal.KindNotify:
		return fmt.Sprintf("id=%s rank=%.2f", e.Notification.ID, e.Notification.Rank)
	case journal.KindRankUpdate:
		return fmt.Sprintf("id=%s rank=%.2f", e.Update.ID, e.Update.NewRank)
	case journal.KindRead:
		return fmt.Sprintf("topic=%s n=%d queue=%d", e.Read.Topic, e.Read.N, e.Read.QueueSize)
	case journal.KindNetwork:
		return fmt.Sprintf("up=%v", *e.NetworkUp)
	default:
		return ""
	}
}
