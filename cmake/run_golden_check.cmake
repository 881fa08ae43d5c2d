# Byte-identity gate for opass_cli artifacts, run as ctest entries (see
# opass_golden_test in examples/CMakeLists.txt). Invoked in script mode:
#
#   cmake -DCLI=<opass_cli> -DOUT_DIR=<scratch-dir>
#         -DARGS=<arg>,<arg>,...            # common to every run
#         -DRUNS=<label>,...                 # one run per label, first = reference
#         -DARTIFACTS=<flag>=<stem>.<ext>,...
#         [-DCOMPARE_STDOUT=ON]
#         [-DSHA256=<stem>.<ext>=<hex digest>,...]
#         -P cmake/run_golden_check.cmake
#
# Runs the CLI once per label with the common arguments and one output path
# per artifact, `--<flag>=<OUT_DIR>/<stem>_<label>.<ext>`. Every artifact of every later
# run must be byte-identical to the reference run's, and so must stdout when
# COMPARE_STDOUT is set. The gated contract: a replay of one seed writes the
# same bytes (no map-order, padding or locale drift; DESIGN.md §13).
#
# Digest mode: each SHA256 entry names one file of the reference run
# (stdout.txt for stdout) and the SHA-256 it must hash to, so a change that
# moves every run alike still fails. A mismatch lists every file's digest.
#
# Rejection mode, for usage-error gates (opass_rejects in the same file):
#
#   cmake -DCLI=<tool> -DARGS=<arg>,... -DEXPECT_EXIT=<code> -DEXPECT_OUTPUT=<regex>
#         -P cmake/run_golden_check.cmake
#
# runs the tool once and requires exactly that exit code (so a crash or a
# silent success fails) and stdout+stderr matching the regex.
if(DEFINED EXPECT_EXIT)
  string(REPLACE "," ";" args "${ARGS}")
  execute_process(COMMAND "${CLI}" ${args} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE output ERROR_VARIABLE output)
  if(NOT rc STREQUAL "${EXPECT_EXIT}" OR NOT output MATCHES "${EXPECT_OUTPUT}")
    message(FATAL_ERROR "${CLI} ${args}: exit code '${rc}', want ${EXPECT_EXIT} with "
                        "output matching '${EXPECT_OUTPUT}'; output:\n${output}")
  endif()
  message(STATUS "exit ${rc}: ${output}")
  return()
endif()

if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR OR NOT DEFINED RUNS OR NOT DEFINED ARTIFACTS)
  message(FATAL_ERROR "usage: cmake -DCLI=<opass_cli> -DOUT_DIR=<dir> -DARGS=<a,b> "
                      "-DRUNS=<label,...> -DARTIFACTS=<flag=stem.ext,...> "
                      "[-DCOMPARE_STDOUT=ON] [-DSHA256=<stem.ext=digest,...>] "
                      "-P run_golden_check.cmake")
endif()

string(REPLACE "," ";" args "${ARGS}")
string(REPLACE "," ";" labels "${RUNS}")
string(REPLACE "," ";" artifacts "${ARTIFACTS}")
file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(label IN LISTS labels)
  set(outputs)
  foreach(artifact IN LISTS artifacts)
    string(REGEX MATCH "^([^=]+)=(.+)\\.([^.]+)$" _ "${artifact}")
    list(APPEND outputs "--${CMAKE_MATCH_1}=${OUT_DIR}/${CMAKE_MATCH_2}_${label}.${CMAKE_MATCH_3}")
  endforeach()
  if(COMPARE_STDOUT)
    set(stdout_sink OUTPUT_FILE "${OUT_DIR}/stdout_${label}.txt")
  else()
    set(stdout_sink OUTPUT_QUIET)
  endif()
  execute_process(
    COMMAND "${CLI}" ${args} ${outputs}
    RESULT_VARIABLE rc
    ${stdout_sink})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "opass_cli run '${label}' failed with exit code ${rc}")
  endif()
endforeach()

set(files)
foreach(artifact IN LISTS artifacts)
  string(REGEX MATCH "^[^=]+=(.+)$" _ "${artifact}")
  list(APPEND files "${CMAKE_MATCH_1}")
endforeach()
if(COMPARE_STDOUT)
  list(APPEND files "stdout.txt")
endif()

list(GET labels 0 reference)
list(LENGTH labels run_count)
set(others)
if(run_count GREATER 1)
  list(SUBLIST labels 1 -1 others)
endif()
foreach(file IN LISTS files)
  string(REGEX MATCH "^(.+)\\.([^.]+)$" _ "${file}")
  set(stem "${CMAKE_MATCH_1}")
  set(ext "${CMAKE_MATCH_2}")
  foreach(label IN LISTS others)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${OUT_DIR}/${stem}_${reference}.${ext}" "${OUT_DIR}/${stem}_${label}.${ext}"
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR "${stem} differs between runs '${reference}' and '${label}' — "
                          "the output is not byte-deterministic")
    endif()
  endforeach()
endforeach()

if(SHA256)
  string(REPLACE "," ";" pins "${SHA256}")
  set(mismatches)
  foreach(pin IN LISTS pins)
    string(REGEX MATCH "^(.+)\\.([^.=]+)=([0-9a-f]+)$" matched "${pin}")
    if(NOT matched)
      message(FATAL_ERROR "malformed SHA256 entry '${pin}' (want <stem>.<ext>=<digest>)")
    endif()
    set(path "${OUT_DIR}/${CMAKE_MATCH_1}_${reference}.${CMAKE_MATCH_2}")
    set(want "${CMAKE_MATCH_3}")
    file(SHA256 "${path}" got)
    if(NOT got STREQUAL want)
      string(APPEND mismatches "\n  ${CMAKE_MATCH_1}.${CMAKE_MATCH_2}=${got} (pinned ${want})")
    endif()
  endforeach()
  if(mismatches)
    message(FATAL_ERROR "outputs differ from their pinned SHA-256 digests:${mismatches}")
  endif()
  message(STATUS "${pins} match their pinned SHA-256 digests")
endif()

message(STATUS "${files} byte-identical across runs ${labels}")
