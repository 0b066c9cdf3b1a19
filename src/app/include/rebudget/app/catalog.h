#ifndef REBUDGET_APP_CATALOG_H_
#define REBUDGET_APP_CATALOG_H_

/**
 * @file
 * The 24-application SPEC-like catalog (Section 5 stand-in).
 *
 * Six applications per class (C, P, B, N), with names echoing the SPEC
 * CPU2000/2006 programs whose behavior each entry is modeled after.
 * Parameters were chosen so that the profiling-based classifier
 * (src/workloads) assigns each entry its design class, and so that the
 * catalog reproduces the qualitative cache behaviors the paper relies
 * on: mcf's flat-then-cliff utility (Figure 2) and vpr's smooth concave
 * utility.
 */

#include <string>
#include <vector>

#include "rebudget/app/app_params.h"
#include "rebudget/app/profiler.h"

namespace rebudget::app {

/** @return the 24 catalog application descriptions. */
std::vector<AppParams> spec24Catalog();

/**
 * @return profiles of all catalog applications, app i with seed
 * 1000 + i (profiled once on first use by profileApps() and cached;
 * bit-identical at any thread count).
 */
const std::vector<AppProfile> &catalogProfiles();

/**
 * @return the cached profile of a catalog application by name.
 * Calls util::fatal() if the name is unknown.
 */
const AppProfile &findCatalogProfile(const std::string &name);

/**
 * Non-fatal lookup for layers that must stay recoverable (the serving
 * daemon, eval::ProblemBuilder): @return the cached profile, or nullptr
 * if no catalog application has that name.
 */
const AppProfile *tryFindCatalogProfile(const std::string &name);

} // namespace rebudget::app

#endif // REBUDGET_APP_CATALOG_H_
