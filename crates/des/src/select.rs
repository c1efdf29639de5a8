//! Racing two futures against each other.
//!
//! [`select2`] is the timeout/hedging primitive of the network tier: a client
//! races an I/O operation against a [`sleep`](crate::SimContext::sleep)
//! (per-request timeout) or races a primary request against a delayed replica
//! request (hedged read). The losing future is dropped, which cancels
//! whatever it was doing — a pending [`Sleep`](crate::Sleep) cancels its
//! timer, and an in-flight storage transfer removes its flow from the shared
//! resource — so abandoned work consumes neither virtual time nor bandwidth.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// The result of [`select2`]: which future finished first, with its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future completed first (the second was dropped).
    Left(A),
    /// The second future completed first (the first was dropped).
    Right(B),
}

impl<A, B> Either<A, B> {
    /// Whether this is the [`Either::Left`] variant.
    pub fn is_left(&self) -> bool {
        matches!(self, Either::Left(_))
    }
}

/// Runs two futures concurrently and resolves with the output of whichever
/// completes first, dropping the other. If both complete at the same poll,
/// the first future wins (deterministic tie-break).
pub fn select2<FA, FB>(a: FA, b: FB) -> Select2<FA, FB>
where
    FA: Future,
    FB: Future,
{
    Select2 {
        a: Some(Box::pin(a)),
        b: Some(Box::pin(b)),
    }
}

/// Future returned by [`select2`].
pub struct Select2<FA: Future, FB: Future> {
    a: Option<Pin<Box<FA>>>,
    b: Option<Pin<Box<FB>>>,
}

impl<FA: Future, FB: Future> Future for Select2<FA, FB> {
    type Output = Either<FA::Output, FB::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        if let Some(a) = this.a.as_mut() {
            if let Poll::Ready(out) = a.as_mut().poll(cx) {
                this.a = None;
                this.b = None; // drop the loser: cancels its timers/flows
                return Poll::Ready(Either::Left(out));
            }
        }
        if let Some(b) = this.b.as_mut() {
            if let Poll::Ready(out) = b.as_mut().poll(cx) {
                this.a = None;
                this.b = None;
                return Poll::Ready(Either::Right(out));
            }
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    #[test]
    fn faster_future_wins_and_clock_stops_at_winner() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let h = sim.spawn({
            let ctx = ctx.clone();
            async move {
                let r = select2(
                    async {
                        ctx.sleep(5.0).await;
                        "slow"
                    },
                    async {
                        ctx.sleep(2.0).await;
                        "fast"
                    },
                )
                .await;
                (r, ctx.now().as_secs())
            }
        });
        sim.run();
        let (r, t) = h.try_take_result().unwrap();
        assert_eq!(r, Either::Right("fast"));
        assert_eq!(t, 2.0);
        // The loser's 5 s timer was cancelled with it: the simulation does
        // not run on to the abandoned deadline.
        assert_eq!(sim.now().as_secs(), 2.0);
    }

    #[test]
    fn left_wins_ties() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let h = sim.spawn({
            let ctx = ctx.clone();
            async move { select2(ctx.sleep(1.0), ctx.sleep(1.0)).await }
        });
        sim.run();
        assert!(h.try_take_result().unwrap().is_left());
        assert_eq!(sim.now().as_secs(), 1.0);
    }

    #[test]
    fn immediate_future_wins_without_time_passing() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let h = sim.spawn({
            let ctx = ctx.clone();
            async move { select2(async { 7 }, ctx.sleep(10.0)).await }
        });
        sim.run();
        assert_eq!(h.try_take_result().unwrap(), Either::Left(7));
        assert_eq!(sim.now().as_secs(), 0.0);
    }

    #[test]
    fn nested_selects_cancel_transitively() {
        // A timeout around a select of two sleeps: dropping the outer loser
        // must cancel both inner timers.
        let sim = Simulation::new();
        let ctx = sim.context();
        let h = sim.spawn({
            let ctx = ctx.clone();
            async move {
                let inner = select2(ctx.sleep(50.0), ctx.sleep(60.0));
                select2(ctx.sleep(1.0), inner).await.is_left()
            }
        });
        sim.run();
        assert!(h.try_take_result().unwrap());
        assert_eq!(sim.now().as_secs(), 1.0);
    }
}
