//! The Byzantine behaviour taxonomy of the evaluation (§6.3).
//!
//! The throughput-Byzantine experiment (Figure 11) subjects the system to
//! four attacks. Faulty behaviour is implemented *inside* the protocol
//! state machines (a replica constructed with a non-honest behaviour
//! deviates in exactly the attack's way) rather than in the transport, so
//! the attacks exercise the real acceptance and recovery code paths.

/// How a replica behaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ByzantineBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// **A1** — non-responsive: ignores every input and sends nothing.
    /// (Also used for the plain crash-failure experiments of Figures 7–10.)
    Crash,
    /// **A2** — keeps `f` non-faulty replicas "in the dark" by withholding
    /// its proposals from them when it is a primary.
    DarkPrimary,
    /// **A3** — equivocates: sends one proposal/vote to `f` non-faulty
    /// replicas and a conflicting one to the rest, attempting divergence.
    Equivocate,
    /// **A4** — refuses to participate in consensus on proposals from
    /// non-faulty primaries, trying to make those primaries look faulty.
    AntiPrimary,
}

impl ByzantineBehavior {
    /// True iff the replica deviates from the protocol in any way.
    #[inline]
    pub fn is_faulty(self) -> bool {
        self != ByzantineBehavior::Honest
    }

    /// True iff the replica is silent (sends nothing at all).
    #[inline]
    pub fn is_silent(self) -> bool {
        self == ByzantineBehavior::Crash
    }

    /// The attack label used in the paper's figures, or `"honest"`.
    pub fn label(self) -> &'static str {
        match self {
            ByzantineBehavior::Honest => "honest",
            ByzantineBehavior::Crash => "A1",
            ByzantineBehavior::DarkPrimary => "A2",
            ByzantineBehavior::Equivocate => "A3",
            ByzantineBehavior::AntiPrimary => "A4",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest() {
        assert_eq!(ByzantineBehavior::default(), ByzantineBehavior::Honest);
        assert!(!ByzantineBehavior::Honest.is_faulty());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ByzantineBehavior::Crash.label(), "A1");
        assert_eq!(ByzantineBehavior::DarkPrimary.label(), "A2");
        assert_eq!(ByzantineBehavior::Equivocate.label(), "A3");
        assert_eq!(ByzantineBehavior::AntiPrimary.label(), "A4");
    }

    #[test]
    fn only_crash_is_silent() {
        assert!(ByzantineBehavior::Crash.is_silent());
        assert!(!ByzantineBehavior::Equivocate.is_silent());
        assert!(ByzantineBehavior::Equivocate.is_faulty());
    }
}
