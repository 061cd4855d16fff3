// Command lasthop-journal inspects and maintains a single-device proxy's
// journal: -dump lists its entries, and -compact rewrites it to the
// entries that still determine proxy state (run it while the proxy is
// stopped). A multi-tenant host's hibernation spool is read by
// lasthop-doctor.
//
// Examples:
//
//	lasthop-journal -dump proxy.journal
//	lasthop-journal -compact proxy.journal
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lasthop/internal/journal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lasthop-journal:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dump    = flag.String("dump", "", "journal file to list")
		compact = flag.String("compact", "", "journal file to compact in place")
	)
	flag.Parse()

	switch {
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
		return fmt.Errorf("one of -dump or -compact is required")
	}
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lasthop-journal: "+format+"\n", args...)
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
