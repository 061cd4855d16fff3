package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"lasthop/internal/host"
	"lasthop/internal/spool"
)

// listSpool checksum-verifies every record under a spool directory (any
// corrupt record fails the command, a torn tail does not), then lists the
// sessions a host restarted on it would restore, with their topics and
// delta backlog.
func listSpool(w io.Writer, dir string) error {
	tallies, err := spool.Verify(dir)
	if err != nil {
		return err
	}
	records := 0
	for _, t := range tallies {
		records += t.Records
	}
	fmt.Fprintf(w, "%s: %d records across %d segments verified\n", dir, records, len(tallies))

	sessions, err := host.ScanSpool(dir, 0, warnf)
	if err != nil {
		return err
	}
	for _, s := range sessions {
		fmt.Fprintf(w, "%-24s  snapshot %s  topics=%d %v  deltas=%d\n",
			s.Name, s.SnapAt.Format(time.RFC3339), len(s.Topics), s.Topics, len(s.Deltas))
	}
	fmt.Fprintf(w, "%d sessions restored on restart\n", len(sessions))
	return nil
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lasthop-doctor: "+format+"\n", args...)
}
