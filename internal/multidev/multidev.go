// Package multidev implements the paper's first future-work item (§4):
// cooperation among multiple devices belonging to one user. Each device
// keeps its own last-hop link and proxy, but over an ad-hoc network a
// reading device can borrow from its siblings' caches (reducing loss when
// its own link is down) and broadcast what the user has read (reducing
// waste from copies that would otherwise linger unread on siblings).
package multidev

import (
	"errors"
	"fmt"
	"slices"

	"lasthop/internal/device"
	"lasthop/internal/link"
	"lasthop/internal/msg"
)

// Member is one device of the group with its last hop.
type Member struct {
	// Name labels the device ("phone", "laptop").
	Name string
	// Device is the device model.
	Device *device.Device
	// Link is the device's own last hop (independent outages).
	Link *link.Link
}

// Group couples the devices of one user over an ad-hoc network. The
// ad-hoc network is assumed local and cheap; it can be toggled to model
// the devices being apart.
type Group struct {
	members []Member
	adhoc   bool

	stats Stats
}

// Stats is the group's cooperation accounting.
type Stats struct {
	// Borrowed counts notifications served to the user from a sibling's
	// cache.
	Borrowed int
	// Released counts unread sibling copies dropped after a read was
	// gossiped.
	Released int
	// Reads counts group reads.
	Reads int
}

// NewGroup builds a group; the ad-hoc network starts available.
func NewGroup(members ...Member) (*Group, error) {
	if len(members) == 0 {
		return nil, errors.New("group needs at least one member")
	}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Name == "" || m.Device == nil || m.Link == nil {
			return nil, fmt.Errorf("invalid member %q", m.Name)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("duplicate member %q", m.Name)
		}
		seen[m.Name] = true
	}
	return &Group{members: members, adhoc: true}, nil
}

// SetAdhoc toggles the ad-hoc network between the devices.
func (g *Group) SetAdhoc(up bool) { g.adhoc = up }

// Members returns the member names in order.
func (g *Group) Members() []string {
	out := make([]string, len(g.members))
	for i, m := range g.members {
		out[i] = m.Name
	}
	return out
}

// Stats returns a copy of the cooperation accounting.
func (g *Group) Stats() Stats { return g.stats }

// ReadUnion returns the set of notifications the user has read across all
// devices.
func (g *Group) ReadUnion(topic string) msg.IDSet {
	union := make(msg.IDSet)
	for _, m := range g.members {
		for id := range m.Device.ReadSet(topic) {
			union.Add(id)
		}
	}
	return union
}

// Read performs a user read on the named member. When the ad-hoc network
// is up, the reading device first borrows its siblings' best cached
// notifications, then reads normally (including its own last-hop READ
// protocol when that link is up), and finally gossips the consumed IDs so
// siblings release their copies.
func (g *Group) Read(memberName, topic string, n int) ([]*msg.Notification, error) {
	idx := -1
	for i, m := range g.members {
		if m.Name == memberName {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("unknown member %q", memberName)
	}
	g.stats.Reads++
	reader := g.members[idx]

	var borrowed msg.IDSet
	if g.adhoc {
		borrowed = make(msg.IDSet)
		for i, peer := range g.members {
			if i == idx {
				continue
			}
			for _, cand := range peer.Device.Peek(topic, n) {
				if reader.Device.ImportPeer(cand) {
					borrowed.Add(cand.ID)
				}
			}
		}
	}

	batch, err := reader.Device.Read(topic, n)
	if err != nil {
		return nil, err
	}
	ids := make([]msg.ID, 0, len(batch))
	for _, b := range batch {
		ids = append(ids, b.ID)
		if borrowed.Contains(b.ID) {
			g.stats.Borrowed++
		}
	}
	if g.adhoc {
		for i, peer := range g.members {
			if i == idx {
				continue
			}
			released := 0
			if len(ids) > 0 {
				released = peer.Device.MarkRead(topic, ids)
				g.stats.Released += released
			}
			// Sync the sibling with its proxy: the Peek request reports
			// the true queue size (gossip releases and local expiries
			// both shrink it silently), so the proxy's view stays
			// accurate and its prefetching does not stall.
			if err := peer.Device.Refill(topic, released+1); err != nil {
				return nil, fmt.Errorf("refill %s: %w", peer.Name, err)
			}
		}
	}
	slices.SortFunc(batch, (*msg.Notification).Compare)
	return batch, nil
}
