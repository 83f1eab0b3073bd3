//! The global simulation event type.
//!
//! All components of a network simulation (routers, interfaces, the
//! workload monitor) exchange values of this one enum through the DES
//! engine. Components ignore variants that cannot legally reach them; in
//! debug builds they report such deliveries as modeling errors.

use crate::flit::Flit;
use crate::ids::{AppId, Port, Vc};
use crate::phase::{AppSignal, PhaseCommand};

/// A simulation event payload.
#[derive(Debug, Clone)]
pub enum Ev {
    /// A flit arriving on the receiver's input `port` after traversing a
    /// channel.
    Flit {
        /// Input port of the receiving component.
        port: Port,
        /// The flit itself.
        flit: Flit,
    },
    /// A credit returning to the sender side of a channel: the downstream
    /// device freed one slot of the buffer behind (`port`, `vc`), where
    /// `port` is the *receiver's* output port.
    Credit {
        /// Output port of the receiving component.
        port: Port,
        /// Virtual channel whose buffer slot was freed.
        vc: Vc,
    },
    /// Self-scheduled pipeline activity for routers and interfaces; fired
    /// at clock edges while work is pending.
    Pipeline,
    /// Self-scheduled injection opportunity for interfaces.
    Inject,
    /// Four-phase protocol signal from an application's terminals to the
    /// workload monitor (paper §IV-A).
    Signal {
        /// Application raising the signal.
        app: AppId,
        /// The signal.
        signal: AppSignal,
    },
    /// Retransmission acknowledgment: the receiver on the far side of
    /// `port` (the receiving component's *output* port, addressed like a
    /// returning credit) got a clean copy after a corruption episode.
    Ack {
        /// Output port of the receiving (original sender) component.
        port: Port,
    },
    /// Retransmission request: the far side of `port` received a flit
    /// whose header checksum failed and discarded it.
    Nack {
        /// Output port of the receiving (original sender) component.
        port: Port,
    },
    /// Four-phase protocol command from the workload monitor to terminals.
    Command(PhaseCommand),
    /// Component-private event with an opaque tag; lets user-defined models
    /// schedule their own activity without extending this enum.
    Internal(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketBuilder;
    use crate::ids::{MessageId, PacketId, TerminalId};

    /// The network's simulator moves between threads on every layout, a
    /// fleet worker's included.
    #[test]
    fn network_simulator_is_send() {
        fn send<T: Send>() {}
        send::<supersim_des::Simulator<Ev>>();
    }

    /// The hot-path layout: a queue slot is an `Ev` plus 24 bytes of
    /// stamp, epsilon and target, so every byte here is paid per event.
    #[test]
    fn flits_and_events_keep_their_size() {
        use crate::ids::Via;
        use std::mem::size_of;
        assert!(
            size_of::<Flit>() <= 32,
            "Flit is {} bytes",
            size_of::<Flit>()
        );
        assert!(size_of::<Ev>() <= 40, "Ev is {} bytes", size_of::<Ev>());
        assert_eq!(size_of::<Option<Via>>(), 4);
    }

    #[test]
    fn events_are_cloneable_and_debuggable() {
        let flit = PacketBuilder {
            id: PacketId(0),
            message: MessageId(0),
            app: AppId(0),
            src: TerminalId(0),
            dst: TerminalId(1),
            size: 1,
            message_size: 1,
            inject_tick: 0,
            message_tick: 0,
            sample: false,
        }
        .build()
        .remove(0);
        let ev = Ev::Flit { port: 3, flit };
        let cloned = ev.clone();
        assert!(format!("{cloned:?}").contains("port: 3"));
        let ev = Ev::Credit { port: 1, vc: 2 };
        assert!(format!("{ev:?}").contains("vc: 2"));
    }
}
