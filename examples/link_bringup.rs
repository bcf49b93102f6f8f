//! Optical link design and bring-up walkthrough.
//!
//! ```text
//! cargo run --release --example link_bringup
//! ```
//!
//! Follows one bidirectional link end to end, the §3.3 story: budget the
//! optical path, account every reflection into the MPI budget, evaluate
//! per-lane BER with and without the DSP's tricks (OIM, concatenated
//! FEC), and finally run the bring-up state machine — including a
//! cross-generation rate negotiation.

use lightwave::optics::link::LinkBudget;
use lightwave::optics::mpi::MpiBudget;
use lightwave::prelude::*;
use lightwave::transceiver::bidilink::BidiLink;
use lightwave::transceiver::bringup::LinkBringup;
use lightwave::transceiver::dsp::FecMode;
use lightwave::units::Dbm;

fn main() {
    println!("=== bidi link design walkthrough ===\n");

    // 1. The optical path: Tx → mux → circulator → fiber → OCS → fiber →
    //    circulator → demux → Rx.
    let budget = LinkBudget::superpod_nominal(Dbm(1.0), 0.2);
    println!("link budget ({} components):", budget.components.len());
    for (i, c) in budget.components.iter().enumerate() {
        println!(
            "  {i}: {:?} — IL {:.2} dB, RL {:.0} dB",
            c.kind,
            c.insertion_loss.db(),
            c.return_loss.db()
        );
    }
    println!(
        "  total loss {:.2} dB → received {}",
        budget.total_loss().db(),
        budget.received_power()
    );

    // 2. The bidi tax: every reflection is in-band interference.
    let mpi = MpiBudget::from_bidi_link(&budget);
    println!("\nMPI budget (bidi): total {:.1} dB", mpi.total_db().db());
    for c in mpi.contributions.iter().take(4) {
        println!("  {:?}: {:.1} dB", c.source, c.ratio_db().db());
    }

    // 3. Per-lane health with the production DSP.
    let designer = LinkDesigner::ml_default();
    let report = designer.evaluate();
    println!(
        "\nper-lane BER (OIM on, concatenated FEC, threshold {}):",
        report.raw_threshold
    );
    for lane in &report.lanes {
        println!(
            "  λ{}: rx {}, dispersion {:.2} dB, BER {} — margin {:.1} orders ({})",
            lane.lane,
            lane.received,
            lane.dispersion_penalty.db(),
            lane.raw_ber,
            lane.margin_orders,
            if lane.healthy { "healthy" } else { "FAIL" }
        );
    }

    // 4. What the DSP buys: degrade launch power until KP4-only dies.
    let mut weak_tx = Transceiver::nominal(ModuleFamily::Cwdm4Bidi);
    weak_tx.launch = Dbm(weak_tx.launch.dbm() - 7.2);
    let rx_unit = Transceiver::nominal(ModuleFamily::Cwdm4Bidi);
    let kp4_only = BidiLink::superpod(
        weak_tx,
        rx_unit,
        DspConfig {
            fec: FecMode::Kp4Only,
            ..DspConfig::ml_production()
        },
        0.2,
    );
    let concat = BidiLink::superpod(weak_tx, rx_unit, DspConfig::ml_production(), 0.2);
    println!(
        "\nmarginal link (launch −7.2 dB): KP4-only healthy: {}, concatenated SFEC healthy: {}",
        kp4_only.is_healthy(),
        concat.is_healthy()
    );
    println!(
        "the inner code's price: {} of receive latency against {} for KP4 alone (200 Gb/s)",
        concat.dsp.fec_latency(200.0),
        kp4_only.dsp.fec_latency(200.0)
    );
    // ... and what backward compatibility buys the link the DSP cannot
    // save at full rate (§3.3.1): half the baud, half the noise bandwidth.
    println!(
        "rate fallback: the KP4-only link comes up at {:?}",
        kp4_only.best_rate(&kp4_only.dsp, &kp4_only.dsp)
    );

    // 5. Bring-up, including backward-compatible rate negotiation.
    let healthy = BidiLink::superpod(
        Transceiver::nominal(ModuleFamily::Cwdm4Bidi),
        Transceiver::nominal(ModuleFamily::Cwdm4Bidi),
        DspConfig::ml_production(),
        0.2,
    );
    let mut bring = LinkBringup::new();
    let t = bring.run(
        &healthy,
        &DspConfig::ml_production(),
        &DspConfig::standards_based(),
    );
    println!("\nbring-up against a previous-generation peer:");
    for e in &bring.events {
        println!("  t+{:<12} → {:?}", e.at.to_string(), e.entered);
    }
    println!(
        "negotiated rate: {:?} in {}",
        bring.negotiated_rate.expect("came up"),
        t
    );
}
