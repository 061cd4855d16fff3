package msg

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newNote(id ID, rank float64) *Notification {
	return &Notification{ID: id, Topic: "t", Rank: rank, Published: t0}
}

func TestDeliveryModeString(t *testing.T) {
	tests := []struct {
		mode DeliveryMode
		want string
	}{
		{OnLine, "on-line"},
		{OnDemand, "on-demand"},
		{DeliveryMode(9), "mode(9)"},
	}
	for _, tt := range tests {
		if got := tt.mode.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.mode), got, tt.want)
		}
	}
}

func TestParseDeliveryMode(t *testing.T) {
	tests := []struct {
		in      string
		want    DeliveryMode
		wantErr bool
	}{
		{"on-line", OnLine, false},
		{"ONLINE", OnLine, false},
		{" on-demand ", OnDemand, false},
		{"OnDemand", OnDemand, false},
		{"push", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseDeliveryMode(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseDeliveryMode(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseDeliveryMode(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseDeliveryModeRoundTrip(t *testing.T) {
	for _, m := range []DeliveryMode{OnLine, OnDemand} {
		got, err := ParseDeliveryMode(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v -> %q -> (%v, %v)", m, m.String(), got, err)
		}
	}
}

func TestNotificationExpiry(t *testing.T) {
	n := newNote("a", 1)
	if !n.NeverExpires() {
		t.Error("zero Expires should mean never expires")
	}
	if n.Expired(t0.Add(100 * 365 * 24 * time.Hour)) {
		t.Error("non-expiring notification reported expired")
	}
	if n.RemainingLife(t0) != maxDuration {
		t.Error("non-expiring notification should have maximal remaining life")
	}

	n.Expires = t0.Add(time.Hour)
	if n.NeverExpires() {
		t.Error("NeverExpires true with expiration set")
	}
	if n.Expired(t0.Add(30 * time.Minute)) {
		t.Error("expired before its time")
	}
	if n.Expired(t0.Add(time.Hour)) {
		t.Error("a notification at exactly its expiration instant is still valid")
	}
	if !n.Expired(t0.Add(time.Hour + time.Nanosecond)) {
		t.Error("not expired after its time")
	}
	if got := n.RemainingLife(t0.Add(20 * time.Minute)); got != 40*time.Minute {
		t.Errorf("RemainingLife = %v, want 40m", got)
	}
	if got := n.RemainingLife(t0.Add(2 * time.Hour)); got != -time.Hour {
		t.Errorf("RemainingLife past expiry = %v, want -1h", got)
	}
}

func TestNotificationClone(t *testing.T) {
	n := newNote("a", 2)
	n.Payload = []byte("hello")
	c := n.Clone()
	c.Payload[0] = 'H'
	c.Rank = 5
	if n.Payload[0] != 'h' {
		t.Error("Clone shares payload storage")
	}
	if n.Rank != 2 {
		t.Error("Clone shares struct storage")
	}
}

func TestNotificationValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Notification)
		ok   bool
	}{
		{"valid", func(*Notification) {}, true},
		{"no id", func(n *Notification) { n.ID = NoID }, false},
		{"no topic", func(n *Notification) { n.Topic = "" }, false},
		{"negative rank", func(n *Notification) { n.Rank = -1 }, false},
		{"huge rank", func(n *Notification) { n.Rank = MaxRank + 1 }, false},
		{"NaN rank", func(n *Notification) { n.Rank = math.NaN() }, false},
		{"expires before published", func(n *Notification) { n.Expires = n.Published.Add(-time.Second) }, false},
		{"expires at published", func(n *Notification) { n.Expires = n.Published }, true},
	}
	for _, tt := range tests {
		n := newNote("a", 1)
		tt.mut(n)
		err := n.Validate()
		if (err == nil) != tt.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tt.name, err, tt.ok)
		}
	}
}

func TestNotificationBefore(t *testing.T) {
	hi := newNote("hi", 5)
	lo := newNote("lo", 1)
	if !hi.Before(lo) || lo.Before(hi) {
		t.Error("higher rank must sort first")
	}
	old := newNote("old", 3)
	young := newNote("young", 3)
	young.Published = t0.Add(time.Minute)
	if !old.Before(young) || young.Before(old) {
		t.Error("equal ranks must sort by publication time, older first")
	}
	a := newNote("a", 3)
	b := newNote("b", 3)
	if !a.Before(b) || b.Before(a) {
		t.Error("full ties must break by ID")
	}
	if a.Before(a) {
		t.Error("Before must be irreflexive")
	}
}

func TestBeforeIsStrictOrder(t *testing.T) {
	// Property: Before is a strict total order on distinct notifications.
	f := func(r1, r2 float64, dt int8, id1, id2 uint8) bool {
		n1 := newNote(ID('a'+rune(id1%26)), normRank(r1))
		n2 := newNote(ID('a'+rune(id2%26)), normRank(r2))
		n2.Published = t0.Add(time.Duration(dt) * time.Second)
		if n1.Rank == n2.Rank && n1.Published.Equal(n2.Published) && n1.ID == n2.ID {
			return !n1.Before(n2) && !n2.Before(n1)
		}
		return n1.Before(n2) != n2.Before(n1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareMatchesBefore: Compare is Before's order, three-way. Ranks and
// instants come from small ranges so that every tie-break level is reached.
func TestCompareMatchesBefore(t *testing.T) {
	f := func(r1, r2, dt1, dt2, id1, id2 uint8) bool {
		n1 := newNote(ID('a'+rune(id1%3)), float64(r1%3)/2)
		n2 := newNote(ID('a'+rune(id2%3)), float64(r2%3)/2)
		n1.Published = t0.Add(time.Duration(dt1%3) * time.Second)
		n2.Published = t0.Add(time.Duration(dt2%3) * time.Second)
		c := n1.Compare(n2)
		return (c < 0) == n1.Before(n2) && (c > 0) == n2.Before(n1) && c == -n2.Compare(n1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func normRank(r float64) float64 {
	if r < 0 {
		r = -r
	}
	for r > MaxRank {
		r /= 2
	}
	return r
}

func TestRankUpdateValidate(t *testing.T) {
	valid := RankUpdate{Topic: "t", ID: "a", NewRank: 3}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid update rejected: %v", err)
	}
	for _, u := range []RankUpdate{
		{Topic: "", ID: "a", NewRank: 3},
		{Topic: "t", ID: NoID, NewRank: 3},
		{Topic: "t", ID: "a", NewRank: -0.5},
		{Topic: "t", ID: "a", NewRank: MaxRank * 2},
		{Topic: "t", ID: "a", NewRank: math.NaN()},
	} {
		if err := u.Validate(); err == nil {
			t.Errorf("invalid update %+v accepted", u)
		}
	}
}

func TestSubscriptionOptions(t *testing.T) {
	var o SubscriptionOptions
	if o.EffectiveMode() != OnDemand {
		t.Error("default mode must be on-demand")
	}
	o.Mode = OnLine
	if o.EffectiveMode() != OnLine {
		t.Error("explicit on-line mode ignored")
	}

	o = SubscriptionOptions{Max: 30, Threshold: 4.5}
	if o.Accepts(newNote("a", 4.4)) {
		t.Error("accepted below threshold")
	}
	if !o.Accepts(newNote("a", 4.5)) {
		t.Error("rejected at threshold")
	}
	if !o.Accepts(newNote("a", 5)) {
		t.Error("rejected above threshold")
	}
}

func TestSubscriptionOptionsValidate(t *testing.T) {
	ok := SubscriptionOptions{Max: 8, Threshold: 2, Mode: OnDemand}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	for _, o := range []SubscriptionOptions{
		{Max: -1},
		{Threshold: -1},
		{Threshold: MaxRank + 1},
		{Mode: DeliveryMode(7)},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("invalid options %+v accepted", o)
		}
	}
}

func TestSubscriptionValidate(t *testing.T) {
	s := Subscription{Topic: "t", Subscriber: "dev", Options: SubscriptionOptions{Max: 8}}
	if err := s.Validate(); err != nil {
		t.Errorf("valid subscription rejected: %v", err)
	}
	s.Topic = ""
	if err := s.Validate(); err == nil {
		t.Error("empty topic accepted")
	}
	s = Subscription{Topic: "t", Options: SubscriptionOptions{Max: 8}}
	if err := s.Validate(); err == nil {
		t.Error("empty subscriber accepted")
	}
	s = Subscription{Topic: "t", Subscriber: "dev", Options: SubscriptionOptions{Max: -3}}
	if err := s.Validate(); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestReadRequestValidate(t *testing.T) {
	ok := ReadRequest{Topic: "t", N: 8, QueueSize: 10, ClientEvents: []ID{"a", "b"}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid read request rejected: %v", err)
	}
	unlimited := ReadRequest{Topic: "t", N: 0, QueueSize: 3, ClientEvents: []ID{"a", "b", "c"}}
	if err := unlimited.Validate(); err != nil {
		t.Errorf("unlimited read request rejected: %v", err)
	}
	for _, r := range []ReadRequest{
		{Topic: "", N: 8},
		{Topic: "t", N: -1},
		{Topic: "t", N: 8, QueueSize: -1},
		{Topic: "t", N: 1, ClientEvents: []ID{"a", "b"}},
	} {
		if err := r.Validate(); err == nil {
			t.Errorf("invalid read request %+v accepted", r)
		}
	}
}

func TestIDSetBasics(t *testing.T) {
	s := NewIDSet("a", "b")
	if s.Len() != 2 || !s.Contains("a") || !s.Contains("b") || s.Contains("c") {
		t.Fatalf("bad initial set %v", s)
	}
	if !s.Add("c") {
		t.Error("Add of new member returned false")
	}
	if s.Add("c") {
		t.Error("Add of existing member returned true")
	}
	if !s.Remove("a") {
		t.Error("Remove of member returned false")
	}
	if s.Remove("a") {
		t.Error("Remove of absent member returned true")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestIDSetClone(t *testing.T) {
	s := NewIDSet("a")
	c := s.Clone()
	c.Add("b")
	if s.Contains("b") {
		t.Error("Clone shares storage")
	}
}

func TestIDSetAlgebra(t *testing.T) {
	a := NewIDSet("1", "2", "3")
	b := NewIDSet("3", "4")

	u := a.Union(b)
	if u.Len() != 4 {
		t.Errorf("Union len = %d, want 4", u.Len())
	}
	d := a.Diff(b)
	if d.Len() != 2 || !d.Contains("1") || !d.Contains("2") {
		t.Errorf("Diff = %v, want {1,2}", d)
	}
	i := a.Intersect(b)
	if i.Len() != 1 || !i.Contains("3") {
		t.Errorf("Intersect = %v, want {3}", i)
	}
	i2 := b.Intersect(a)
	if i2.Len() != 1 || !i2.Contains("3") {
		t.Errorf("Intersect must be symmetric, got %v", i2)
	}
}

func TestIDSetAlgebraProperties(t *testing.T) {
	mk := func(bits uint8) IDSet {
		s := NewIDSet()
		for i := 0; i < 8; i++ {
			if bits&(1<<i) != 0 {
				s.Add(ID(rune('a' + i)))
			}
		}
		return s
	}
	f := func(x, y uint8) bool {
		a, b := mk(x), mk(y)
		u, d, i := a.Union(b), a.Diff(b), a.Intersect(b)
		// |A∪B| = |A| + |B| - |A∩B| and A = (A\B) ∪ (A∩B).
		if u.Len() != a.Len()+b.Len()-i.Len() {
			return false
		}
		back := d.Union(i)
		if back.Len() != a.Len() {
			return false
		}
		for id := range a {
			if !back.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNotificationJSONRoundTrip(t *testing.T) {
	n := &Notification{
		ID:        "n-17",
		Topic:     "weather/tromsø",
		Publisher: "met.no",
		Rank:      4.5,
		Published: t0,
		Expires:   t0.Add(48 * time.Hour),
		Payload:   []byte("storm warning"),
	}
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Notification
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.ID != n.ID || got.Topic != n.Topic || got.Rank != n.Rank ||
		!got.Published.Equal(n.Published) || !got.Expires.Equal(n.Expires) ||
		string(got.Payload) != string(n.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, n)
	}
}
