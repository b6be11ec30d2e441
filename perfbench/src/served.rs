//! The system under test for the DAT-2 workloads: the query service over
//! a seeded DAT-2 catalog, behind its TCP front end, with default
//! configuration and connected binary-wire clients.

use sjdf::ExecCtx;
use sjserve::protocol::{Request, Response};
use sjserve::server::{serve, ServerHandle};
use sjserve::service::{QueryService, ServiceConfig};

use crate::bounded_teardown;
use crate::inputs;
use crate::wireclient::WireClient;

pub struct Served {
    /// The context the service's executor reports into.
    pub ctx: ExecCtx,
    pub handle: ServerHandle,
    pub clients: Vec<WireClient>,
}

/// The service over DAT-2 seeded from `seed`, on its own context.
pub fn service(seed: u64) -> Result<(ExecCtx, QueryService), String> {
    let ctx = ExecCtx::local();
    let catalog = inputs::dat2_catalog(&ctx, seed)?;
    let service = QueryService::new(ctx.clone(), catalog, ServiceConfig::default());
    Ok((ctx, service))
}

/// Boot the service on a loopback port and connect `clients` clients.
pub fn boot(seed: u64, clients: usize) -> Result<Served, String> {
    let (ctx, service) = service(seed)?;
    let handle = serve(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let clients = (0..clients)
        .map(|_| WireClient::connect(handle.addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Served {
        ctx,
        handle,
        clients,
    })
}

/// Close the clients, then stop the server, within the teardown budget.
pub fn stop(served: Served) {
    bounded_teardown("DAT-2 service", || {
        for client in served.clients {
            client.close();
        }
        served.handle.stop();
    });
}

/// `Ok` when `response` is a successful query result; otherwise why not.
pub fn require_result(request: &Request, response: &Response) -> Result<(), String> {
    if response.is_ok() && response.result.is_some() {
        Ok(())
    } else {
        Err(format!(
            "{}: {} {:?}",
            request.id, response.status, response.error
        ))
    }
}
