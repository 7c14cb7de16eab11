// Calibration glue between the real single-boot simulation and the fleet
// simulator: runs a small SquirrelCluster over a handful of catalog images
// and derives sim::fleet::FleetModel costs (warm/prefetch boot seconds,
// cache and diff byte sizes, registration service time) from the measured
// reports — so fleet-scale storms reuse the calibrated single-boot model
// without instantiating a zvol::Volume per node.
#pragma once

#include <cstdint>

#include "sim/fleet/fleet.h"
#include "vmi/catalog.h"

namespace squirrel::core {

/// Registers and boots `sample_images` images (capped at the catalog size)
/// on a 1-compute-node cluster and returns a FleetModel whose per-boot and
/// per-registration costs are the measured means. Deterministic: same
/// catalog config → same model.
sim::fleet::FleetModel CalibrateFleetModel(
    const vmi::CatalogConfig& catalog_config, std::uint32_t sample_images = 4);

}  // namespace squirrel::core
