// Package lasthop is a volume-limiting publish/subscribe system for the
// "last hop" — the link between fixed infrastructure and a mobile device —
// reproducing Zagorodnov & Johansen, "The Last Hop of Global Notification
// Delivery to Mobile Users: Accommodating Volume Limits and Device
// Constraints" (ICDCS 2005).
//
// Publishers annotate notifications with Rank and Expiration; subscribers
// set Max and Threshold; and a per-device proxy runs the paper's unified
// prefetching algorithm to keep vain traffic (waste) and missed messages
// (loss) simultaneously low on flaky wireless links.
//
// This package is a curated facade over the implementation packages:
//
//   - the message model (Notification, Subscription, ReadRequest),
//   - the pub/sub routing substrate (Broker),
//   - the core last-hop proxy (Proxy), its policies and its Forwarder,
//   - the device model (Device) and last-hop link model (Link),
//   - scheduling: the deterministic VirtualClock and the WallClock every
//     live proxy runs on, a timing wheel whose callbacks fire at most two
//     10 ms ticks late,
//   - the discrete-event simulator (SimConfig, Scenario, Compare),
//   - the experiment harness regenerating the paper's figures, and
//   - the TCP wire deployment (BrokerServer, ProxyServer, DeviceClient).
//
// See examples/quickstart for an end-to-end tour.
package lasthop

import (
	"time"

	"lasthop/internal/core"
	"lasthop/internal/device"
	"lasthop/internal/dist"
	"lasthop/internal/experiment"
	"lasthop/internal/journal"
	"lasthop/internal/link"
	"lasthop/internal/metrics"
	"lasthop/internal/mobility"
	"lasthop/internal/msg"
	"lasthop/internal/multidev"
	"lasthop/internal/pubsub"
	"lasthop/internal/replica"
	"lasthop/internal/sim"
	"lasthop/internal/simtime"
	"lasthop/internal/trace"
	"lasthop/internal/wire"
)

// Message model (internal/msg).
type (
	// Notification is one published event with the volume-limiting
	// attributes Rank and Expiration.
	Notification = msg.Notification
	// ID identifies a notification.
	ID = msg.ID
	// RankUpdate revises the rank of a published notification.
	RankUpdate = msg.RankUpdate
	// Subscription ties a subscriber to a topic with Max/Threshold.
	Subscription = msg.Subscription
	// SubscriptionOptions carries the subscriber-side volume limits.
	SubscriptionOptions = msg.SubscriptionOptions
	// DeliveryMode selects on-line or on-demand delivery.
	DeliveryMode = msg.DeliveryMode
	// ReadRequest is the device-to-proxy read of §3.5.
	ReadRequest = msg.ReadRequest
	// IDSet is a set of notification IDs.
	IDSet = msg.IDSet
)

// Delivery modes.
const (
	OnLine   = msg.OnLine
	OnDemand = msg.OnDemand
)

// Routing substrate (internal/pubsub).
type (
	// Broker is a topic-based pub/sub routing node.
	Broker = pubsub.Broker
	// BrokerSubscriber receives notifications from a broker.
	BrokerSubscriber = pubsub.Subscriber
)

// NewBroker returns an empty broker with the given node name.
func NewBroker(name string) *Broker { return pubsub.NewBroker(name) }

// Core proxy (internal/core).
type (
	// Proxy is the last-hop proxy running the paper's Figure 7
	// algorithm.
	Proxy = core.Proxy
	// TopicConfig configures one subscribed topic on a proxy.
	TopicConfig = core.TopicConfig
	// PolicyKind selects a forwarding policy.
	PolicyKind = core.PolicyKind
	// Forwarder pushes each burst across the last hop in one ForwardBatch.
	Forwarder = core.BatchForwarder
	// TopicSnapshot is a read-only view of a topic's proxy state.
	TopicSnapshot = core.TopicSnapshot
)

// Forwarding policies (§3.1–3.2).
const (
	// PolicyOnline forwards everything as soon as the network allows.
	PolicyOnline = core.Online
	// PolicyOnDemand holds everything until the user asks.
	PolicyOnDemand = core.OnDemand
	// PolicyBuffer prefetches up to a limit (the paper's winner).
	PolicyBuffer = core.Buffer
	// PolicyRate forwards at the estimated read/arrival ratio.
	PolicyRate = core.Rate
)

// NewProxy returns a proxy bound to a scheduler and a forwarder.
func NewProxy(sched Scheduler, fwd Forwarder) *Proxy { return core.New(sched, fwd) }

// ForwardEach is a ForwardBatch over a per-notification receiver such as
// Device.Receive; it stops at the first failure.
var ForwardEach = core.ForwardEach

// Policy preset constructors.
var (
	OnlineConfig   = core.OnlineConfig
	OnDemandConfig = core.OnDemandConfig
	BufferConfig   = core.BufferConfig
	RateConfig     = core.RateConfig
	UnifiedConfig  = core.UnifiedConfig
)

// Device and link models (internal/device, internal/link).
type (
	// Device is the mobile client: bounded storage, battery budget, and
	// the client side of the READ protocol.
	Device = device.Device
	// DeviceConfig parameterizes a device.
	DeviceConfig = device.Config
	// Link models the last hop with outages and transfer accounting.
	Link = link.Link
)

// NewDevice returns a device reading through the given link and backend.
func NewDevice(sched Scheduler, lnk *Link, backend device.ReadBackend, cfg DeviceConfig) *Device {
	return device.New(sched, lnk, backend, cfg)
}

// NewLink returns a last-hop link in the given initial state.
func NewLink(sched Scheduler, up bool) *Link { return link.New(sched, up) }

// Time abstraction (internal/simtime).
type (
	// Scheduler is the time facility shared by simulation and
	// deployment.
	Scheduler = simtime.Scheduler
	// VirtualClock is the deterministic discrete-event scheduler.
	VirtualClock = simtime.Virtual
	// WallClock is the real-time scheduler: a timing wheel driven by its
	// own ticker goroutine, firing each callback no earlier than its
	// instant and at most two ticks late. Close releases the goroutine.
	WallClock = simtime.Wheel
)

// NewVirtualClock returns a virtual scheduler starting at the instant.
func NewVirtualClock(start time.Time) *VirtualClock { return simtime.NewVirtual(start) }

// NewWallClock returns a wall-clock scheduler with the 10 ms tick every
// live proxy uses.
func NewWallClock() *WallClock { return simtime.NewWallWheel(0) }

// Simulator (internal/sim) and metrics (internal/metrics).
type (
	// SimConfig parameterizes scenario generation (§3).
	SimConfig = sim.Config
	// Scenario is one materialized random instance.
	Scenario = sim.Scenario
	// SimResult summarizes one policy run.
	SimResult = sim.Result
	// Comparison pairs a policy run with its on-line baseline.
	Comparison = sim.Comparison
	// ExpirationConfig describes notification lifetimes.
	ExpirationConfig = dist.ExpirationConfig
	// OutageConfig describes the last-hop outage process.
	OutageConfig = dist.OutageConfig
)

// Simulator entry points.
var (
	NewScenario     = sim.NewScenario
	RunScenario     = sim.Run
	RunTraced       = sim.RunTraced
	Compare         = sim.Compare
	CompareAveraged = sim.CompareAveraged
)

// Tracing (internal/trace): the optional event timeline of a run.
type (
	// TraceEvent is one timeline record.
	TraceEvent = trace.Event
	// TraceBuffer retains events in memory.
	TraceBuffer = trace.Buffer
	// TraceWriter streams events as log lines.
	TraceWriter = trace.Writer
)

// Trace constructors.
var (
	NewTraceBuffer = trace.NewBuffer
	NewTraceWriter = trace.NewWriter
)

// Waste/loss metrics (§3.1).
var (
	WastePct = metrics.WastePct
	LossPct  = metrics.LossPct
)

// Experiments (internal/experiment): regenerate the paper's figures.
type (
	// Experiment options (horizon, seed, replications).
	ExperimentOptions = experiment.Options
	// ExperimentFigure is one reproduced figure.
	ExperimentFigure = experiment.Figure
)

// Claim is one of the paper's headline claims with this reproduction's
// verdict; VerifyClaims measures all of them.
type Claim = experiment.Claim

// Claim verification entry points.
var (
	VerifyClaims = experiment.VerifyClaims
	RenderClaims = experiment.RenderClaims
)

// Figure reproductions, ablations, and the future-work extension studies.
var (
	Figure1              = experiment.Figure1
	Figure2              = experiment.Figure2
	Figure3              = experiment.Figure3
	Figure4              = experiment.Figure4
	Figure5              = experiment.Figure5
	Figure6              = experiment.Figure6
	AblationRateVsBuffer = experiment.AblationRateVsBuffer
	AblationDelay        = experiment.AblationDelay
	AblationAutoLimit    = experiment.AblationAutoLimit
	ExtensionMultiDevice = experiment.ExtensionMultiDevice
)

// Multi-device cooperation (internal/multidev, paper §4 future work).
type (
	// DeviceGroup couples one user's devices over an ad-hoc network.
	DeviceGroup = multidev.Group
	// DeviceGroupMember is one device of the group with its last hop.
	DeviceGroupMember = multidev.Member
)

// NewDeviceGroup builds a cooperating device group.
func NewDeviceGroup(members ...DeviceGroupMember) (*DeviceGroup, error) {
	return multidev.NewGroup(members...)
}

// Durability (internal/journal): write-ahead journaling and recovery.
type (
	// ProxyJournal is the append-only input journal of a durable proxy.
	ProxyJournal = journal.Journal
	// JournaledProxy wraps a proxy with write-ahead journaling.
	JournaledProxy = journal.Recorder
)

// Journal entry points.
var (
	OpenJournal    = journal.Open
	RecoverProxy   = journal.Recover
	CompactJournal = journal.Compact
)

// Replicated proxy (internal/replica, paper §4 future work).
type (
	// ReplicatedProxy runs the proxy as a replicated deterministic state
	// machine; on failover a standby takes over with full state.
	ReplicatedProxy = replica.Replicated
)

// NewReplicatedProxy builds n proxy replicas forwarding (when active) to
// out.
func NewReplicatedProxy(sched Scheduler, out Forwarder, n int) (*ReplicatedProxy, error) {
	return replica.New(sched, out, n)
}

// Mobility (internal/mobility): context-parameterized subscriptions.
type (
	// Context is the device-reported attribute set.
	Context = mobility.Context
	// ContextRule declares one parameterized subscription.
	ContextRule = mobility.Rule
	// ContextTracker realigns subscriptions on context updates.
	ContextTracker = mobility.Tracker
)

// NewContextTracker returns a tracker driving the given manager.
func NewContextTracker(mgr mobility.SubscriptionManager, subscriber string) *ContextTracker {
	return mobility.NewTracker(mgr, subscriber)
}

// Wire deployment (internal/wire): the same proxy over TCP.
type (
	// BrokerServer exposes a Broker over TCP.
	BrokerServer = wire.BrokerServer
	// BrokerClient is the publisher/proxy-side broker connection.
	BrokerClient = wire.BrokerClient
	// ProxyServer runs the proxy as a network service.
	ProxyServer = wire.ProxyServer
	// DeviceClient is the device side of the proxy protocol.
	DeviceClient = wire.DeviceClient
	// TopicPolicy is the device-selected policy for a wire topic.
	TopicPolicy = wire.TopicPolicy
)

// Wire constructors.
var (
	NewBrokerServer = wire.NewBrokerServer
	NewProxyServer  = wire.NewProxyServer
	DialBroker      = wire.DialBroker
	DialProxy       = wire.DialProxy
)
