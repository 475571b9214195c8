// Package schemes encodes the three message-dependent deadlock handling
// techniques the paper evaluates (Section 4.3.1) as resource-allocation
// policies: how virtual channels are partitioned among message types, which
// routing function each partition uses, how endpoint message queues are
// assigned, and which recovery action (none, deflection, progressive rescue)
// a detection event triggers.
//
//   - SA (strict avoidance, Alpha 21364-style): one logical network per
//     message type in use; per-type escape channels; no deadlock possible.
//   - DR (deflective recovery, Origin2000-style): two logical networks
//     (request/reply); request-network deadlocks resolved by backoff replies;
//     reply network kept deadlock-free by preallocation.
//   - PR (progressive recovery, the proposed Extended Disha Sequential):
//     every virtual channel and queue shared by all types under true fully
//     adaptive routing; deadlocks resolved over the deadlock-buffer lane.
//
// Two further techniques the paper describes without evaluating are also
// implemented for completeness:
//
//   - SQ (sufficient-queue avoidance, IBM SP2 / Alewife / Mercury style):
//     shared channels with endpoint queues large enough that messages always
//     sink, at O(P x M) storage.
//   - AB (regressive abort-and-retry recovery): detected heads are killed
//     and negatively acknowledged for sender re-injection with exponential
//     backoff — the resolution class Section 2.2 argues against.
package schemes

import (
	"fmt"
	"strings"

	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/protocol"
	"repro/internal/routing"
)

// Kind identifies the handling technique.
type Kind int

const (
	// SA is strict avoidance.
	SA Kind = iota
	// DR is deflective recovery.
	DR
	// PR is progressive recovery (Extended Disha Sequential).
	PR
	// SQ is the second strict-avoidance technique of Section 2.1: message
	// queues large enough that messages always sink (IBM SP2, Alewife,
	// Mercury style). All message types share one logical network with a
	// Duato escape pair — cyclic dependencies on escape resources are
	// allowed because the endpoint queues can never fill: the network
	// layer requires QueueCap >= endpoints x outstanding, the O(P x M)
	// growth the paper criticizes.
	SQ
	// AB is regressive ("abort-and-retry") recovery, the third resolution
	// class Section 2.2 names: a detected head message is killed and
	// negatively acknowledged; its sender re-injects it. Resource layout
	// matches DR (two class networks, NACKs ride the self-draining reply
	// network), isolating the resolution policy for comparison. The paper
	// argues this class "only exacerbates the problem" — each recovery
	// adds a NACK round plus a full retraversal.
	AB
)

func (k Kind) String() string {
	switch k {
	case SA:
		return "SA"
	case DR:
		return "DR"
	case SQ:
		return "SQ"
	case AB:
		return "AB"
	default:
		return "PR"
	}
}

// KindByName parses a scheme name.
func KindByName(s string) (Kind, error) {
	switch s {
	case "SA", "sa":
		return SA, nil
	case "DR", "dr":
		return DR, nil
	case "PR", "pr":
		return PR, nil
	case "SQ", "sq":
		return SQ, nil
	case "AB", "ab":
		return AB, nil
	}
	return 0, fmt.Errorf("schemes: unknown scheme %q", s)
}

// MarshalText and UnmarshalText give Kind its name as text form (the
// "scheme" key of counterexample files), so files survive enum reordering.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *Kind) UnmarshalText(name []byte) (err error) {
	*k, err = KindByName(string(name))
	return err
}

// torusEscapeVCs is the minimum number of virtual channels per logical
// network needed to escape routing-dependent deadlock in a torus (the
// Dally-Seitz dateline pair), E_r in the paper's availability formula.
// Meshes need only one (topology.Torus.EscapeVCs).
const torusEscapeVCs = 2

// Scheme is a resolved resource policy for one (kind, pattern, VC count)
// configuration.
type Scheme struct {
	Kind      Kind
	Pattern   *protocol.Pattern
	VCs       int
	QueueMode netiface.QueueMode

	// partitions holds the VC index sets of each logical network.
	partitions [][]int
	// partOf maps each generic type to its partition index.
	partOf [message.NumTypes]int
	// usedTypes is the compact list of types the pattern emits.
	usedTypes []message.Type
	// typeQueue maps types to compact queue indices under QueuePerType.
	typeQueue [message.NumTypes]int
	// sharedAdaptive marks the Martinez/Torrellas/Duato variant of SA
	// (reference [21], Section 2.1): each type keeps its own escape pair,
	// but every channel beyond the escapes is shared by all message
	// types, raising availability from 1+(C/L - E_r) to 1+(C - E_m).
	sharedAdaptive bool
	// sharedPool is the shared adaptive channel set of that variant.
	sharedPool []int
	// er is the escape-channel count per logical network (E_r): 2 on a
	// torus, 1 on a mesh.
	er int
}

// New resolves a scheme. queueMode may be -1 to use the kind's canonical
// default (SA: per-type, DR: per-class, PR: shared); Figure 11's "QA"
// configurations pass an explicit mode. It returns an error when the
// configuration cannot exist, mirroring the gaps in the paper's figures: SA
// needs at least two escape VCs per used message type, and DR degenerates
// for chain lengths of at most two (no intermediate request to deflect, "DR
// is not valid" for PAT100).
func New(kind Kind, pattern *protocol.Pattern, vcs int, queueMode netiface.QueueMode) (*Scheme, error) {
	return NewWithOptions(kind, pattern, vcs, queueMode, false, torusEscapeVCs)
}

// Check reports whether NewWithOptions can resolve the configuration, without
// building it; each error names the parameter at fault as network.Config
// spells it. It is the scheme's validity envelope: SA needs E_r escape VCs per
// used message type and per-type queues, DR and AB need a chain longer than
// two, E_r VCs per class and at least per-class queues, SQ needs E_r VCs.
func Check(kind Kind, pattern *protocol.Pattern, vcs int, queueMode netiface.QueueMode, sharedAdaptive bool, er int) error {
	if kind < SA || kind > AB {
		return fmt.Errorf("schemes: unknown Scheme %d", kind)
	}
	if sharedAdaptive && kind != SA {
		return fmt.Errorf("schemes: SASharedChannels applies to SA only, not Scheme %v", kind)
	}
	if er < 1 {
		return fmt.Errorf("schemes: escape channel count must be >= 1")
	}
	if err := pattern.Validate(); err != nil {
		return err
	}
	if vcs < 1 {
		return fmt.Errorf("schemes: VCs must be at least 1, got %d", vcs)
	}
	if !queueMode.Valid() {
		return fmt.Errorf("schemes: QueueMode %d is not -1 (the scheme's default), 0 (shared), 1 (per class) or 2 (per type)", int(queueMode))
	}
	if queueMode == netiface.QueueDefault {
		queueMode = DefaultQueueMode(kind)
	}
	switch kind {
	case SA:
		n := len(pattern.UsedTypes())
		if vcs/n < er {
			return fmt.Errorf("schemes: SA needs >= %d VCs per message type; %d VCs over %d types is insufficient", er, vcs, n)
		}
		if queueMode != netiface.QueuePerType {
			return fmt.Errorf("schemes: SA requires per-type queues, QueueMode %d", int(queueMode))
		}
	case DR, AB:
		if pattern.MaxChainLength() <= 2 {
			return fmt.Errorf("schemes: %v is not valid for chain lengths <= 2 (pattern %s)", kind, pattern.Name)
		}
		if vcs/int(message.NumClasses) < er {
			return fmt.Errorf("schemes: %v needs >= %d VCs per class, got VCs %d", kind, er, vcs)
		}
		if queueMode == netiface.QueueShared {
			return fmt.Errorf("schemes: %v requires at least per-class queues (reply preallocation), QueueMode %d", kind, int(queueMode))
		}
	case SQ:
		if vcs < er {
			return fmt.Errorf("schemes: SQ needs >= %d escape VCs, got VCs %d", er, vcs)
		}
	}
	return nil
}

// NewWithOptions is New with two more parameters. sharedAdaptive selects the
// SA channel-sharing variant of reference [21]: per-type escape channels plus
// a pool of adaptive channels shared by all message types; it is only
// meaningful for SA and requires C >= E_m = 2 x (used types). er is the
// escape-channel requirement E_r (2 for tori, 1 for meshes), which scales
// every scheme's validity envelope: on a mesh SA can partition 4 VCs among 4
// message types. Check states what it accepts.
func NewWithOptions(kind Kind, pattern *protocol.Pattern, vcs int, queueMode netiface.QueueMode, sharedAdaptive bool, er int) (*Scheme, error) {
	if err := Check(kind, pattern, vcs, queueMode, sharedAdaptive, er); err != nil {
		return nil, err
	}
	s := &Scheme{Kind: kind, Pattern: pattern, VCs: vcs, QueueMode: queueMode, er: er}
	if queueMode < 0 {
		s.QueueMode = DefaultQueueMode(kind)
	}
	s.usedTypes = pattern.UsedTypes()
	for i := range s.typeQueue {
		s.typeQueue[i] = -1
	}
	for i, t := range s.usedTypes {
		s.typeQueue[t] = i
	}

	switch kind {
	case SA:
		n := len(s.usedTypes)
		if sharedAdaptive {
			// Per-type escape sets first, then one shared adaptive pool.
			s.sharedAdaptive = true
			s.partitions = make([][]int, n)
			for i := 0; i < n; i++ {
				for e := 0; e < er; e++ {
					s.partitions[i] = append(s.partitions[i], er*i+e)
				}
			}
			for vc := er * n; vc < vcs; vc++ {
				s.sharedPool = append(s.sharedPool, vc)
			}
		} else {
			s.partitions = splitVCs(vcs, n)
		}
		for i, t := range s.usedTypes {
			s.partOf[t] = i
		}
	case DR, AB:
		s.partitions = splitVCs(vcs, int(message.NumClasses))
		for t := message.Type(0); t < message.NumTypes; t++ {
			s.partOf[t] = int(pattern.Style.ClassOf(t))
		}
	case PR, SQ:
		// One partition; every type uses partition 0 (the zero value).
		all := make([]int, vcs)
		for i := range all {
			all[i] = i
		}
		s.partitions = [][]int{all}
	}
	return s, nil
}

// DefaultQueueMode returns the canonical endpoint queue arrangement of each
// technique.
func DefaultQueueMode(kind Kind) netiface.QueueMode {
	switch kind {
	case SA:
		return netiface.QueuePerType
	case DR, AB:
		return netiface.QueuePerClass
	default: // PR and SQ share everything
		return netiface.QueueShared
	}
}

// splitVCs divides vcs channel indices into n contiguous partitions as
// evenly as possible, earlier partitions receiving the remainder.
func splitVCs(vcs, n int) [][]int {
	parts := make([][]int, n)
	base := vcs / n
	rem := vcs % n
	idx := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		for j := 0; j < size; j++ {
			parts[i] = append(parts[i], idx)
			idx++
		}
	}
	return parts
}

// partitionFor returns the VC partition of a message type. Backoff replies
// ride the reply partition under DR and the shared partition under PR.
func (s *Scheme) partitionFor(typ message.Type, backoff bool) []int {
	if backoff {
		switch s.Kind {
		case DR, AB:
			return s.partitions[int(message.ClassReply)]
		case PR, SQ:
			return s.partitions[0]
		}
	}
	return s.partitions[s.partOf[typ]]
}

// VCSetFor returns the escape/adaptive split of the virtual channels a
// message of the given type may use. Under PR every channel is adaptive
// (true fully adaptive routing); under SA/DR the first two channels of the
// partition are the Dally-Seitz escape pair and the rest are Duato adaptive
// channels.
func (s *Scheme) VCSetFor(typ message.Type, backoff bool) routing.VCSet {
	part := s.partitionFor(typ, backoff)
	if s.Kind == PR {
		return routing.VCSet{Adaptive: part}
	}
	if s.sharedAdaptive {
		return routing.VCSet{Escape: part[:s.er], Adaptive: s.sharedPool}
	}
	return routing.VCSet{Escape: part[:s.er], Adaptive: part[s.er:]}
}

// RoutingMode returns the routing function a message of the given type uses:
// TFAR under PR, Duato when the partition has adaptive channels beyond the
// escape pair, and plain dimension-order otherwise.
func (s *Scheme) RoutingMode(typ message.Type, backoff bool) routing.Mode {
	if s.Kind == PR {
		return routing.TFAR
	}
	if s.sharedAdaptive {
		if len(s.sharedPool) > 0 {
			return routing.Duato
		}
		return routing.DOR
	}
	if len(s.partitionFor(typ, backoff)) > s.er {
		return routing.Duato
	}
	return routing.DOR
}

// NumQueues returns how many input/output queue pairs each NI has.
func (s *Scheme) NumQueues() int {
	switch s.QueueMode {
	case netiface.QueueShared:
		return 1
	case netiface.QueuePerClass:
		return int(message.NumClasses)
	default:
		return len(s.usedTypes)
	}
}

// QueueIndex maps a message type to its endpoint queue. Backoff replies use
// the reply-class queue (per-class) or the terminating type's queue
// (per-type), since they always sink via preallocation and only their
// output-side slot matters.
func (s *Scheme) QueueIndex(typ message.Type, backoff bool) int {
	switch s.QueueMode {
	case netiface.QueueShared:
		return 0
	case netiface.QueuePerClass:
		if backoff {
			return int(message.ClassReply)
		}
		return int(s.Pattern.Style.ClassOf(typ))
	default:
		if backoff {
			return s.typeQueue[message.M4]
		}
		q := s.typeQueue[typ]
		if q < 0 {
			// A type outside the pattern's normal set (defensive).
			return s.typeQueue[message.M4]
		}
		return q
	}
}

// Deflectable reports whether DR may deflect message m at its destination:
// its subordinate must be request-class (deflection replaces a
// request-network obligation with a backoff reply on the self-draining reply
// network). Heads whose subordinates are replies cannot deadlock the request
// network and are never deflected.
func (s *Scheme) Deflectable(e *protocol.Engine, t *protocol.Transaction, m *message.Message) bool {
	if (s.Kind != DR && s.Kind != AB) || m.Backoff || m.Nack {
		return false
	}
	c, ok := e.WouldGenerateClass(t, m)
	return ok && c == message.ClassRequest
}

// Partitions exposes the resolved VC partitions (for tests and the
// experiment reports).
func (s *Scheme) Partitions() [][]int { return s.partitions }

// UsedTypes exposes the pattern's used types in compact queue order.
func (s *Scheme) UsedTypes() []message.Type { return s.usedTypes }

// Availability returns the paper's channel-availability figure for the
// scheme: the number of virtual channels a single message can choose from at
// a hop (1 + adaptive channels), Section 2.1's (1 + (C/L - E_r)) for SA.
func (s *Scheme) Availability() int {
	switch {
	case s.Kind == PR:
		return s.VCs
	case s.Kind == SQ:
		return 1 + (s.VCs - s.er)
	case s.sharedAdaptive:
		return 1 + len(s.sharedPool)
	default:
		p := s.partitions[0]
		return 1 + (len(p) - s.er)
	}
}

// PartitionSummary renders the resolved resource policy as one line, e.g.
// "SA C=4 Q=per-type [M1:{0,1} M2:{2,3}]" — recorded as trace metadata so a
// trace file is self-describing.
func (s *Scheme) PartitionSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v C=%d Q=%v [", s.Kind, s.VCs, s.QueueMode)
	switch {
	case s.Kind == PR || s.Kind == SQ:
		fmt.Fprintf(&b, "all:%s", vcSet(s.partitions[0]))
	case s.Kind == DR || s.Kind == AB:
		fmt.Fprintf(&b, "req:%s rep:%s",
			vcSet(s.partitions[int(message.ClassRequest)]),
			vcSet(s.partitions[int(message.ClassReply)]))
	default:
		for i, t := range s.usedTypes {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%v:%s", t, vcSet(s.partitions[i]))
		}
		if s.sharedAdaptive {
			fmt.Fprintf(&b, " shared:%s", vcSet(s.sharedPool))
		}
	}
	b.WriteByte(']')
	return b.String()
}

// vcSet renders a VC index list compactly.
func vcSet(vcs []int) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range vcs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte('}')
	return b.String()
}
