"""Shell-to-result benchmark of the CODIC reproduction (see ``run.py``)."""
